//! Deterministic failpoints for chaos testing.
//!
//! A failpoint is a named site in production code — `fault::point!("snapshot.rename")`
//! — that normally compiles to nothing. With the `fault-injection`
//! feature enabled, sites consult a process-global registry armed by an
//! explicit plan string:
//!
//! ```text
//! snapshot.rename=err@2;serve.write=panic;expand.level=delay(25)@4
//! ```
//!
//! Each clause is `site=action[@n]`. The action fires exactly once, on
//! the `n`-th hit of that site (1-based, default 1), and never again
//! until the plan is re-armed. Hit counting is the only state — there
//! is no ambient randomness and no clock, so a given plan against a
//! given workload is fully deterministic.
//!
//! Actions:
//! - `err` — the site's error arm runs (`point!(site, expr)` evaluates
//!   `expr`, typically an early `return Err(..)`); bare `point!(site)`
//!   ignores it.
//! - `panic` — the site panics with a recognizable message.
//! - `delay(ms)` — the site sleeps for `ms` milliseconds.
//!
//! Without the `fault-injection` feature, `point!` expands to an empty
//! block and the arming API stays callable but inert — except
//! [`arm_from_env`], which reports an error if `MVQ_FAULTS` is set in a
//! build that cannot honor it, so an operator never silently runs an
//! unarmed chaos drill.

#![forbid(unsafe_code)]

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Run the site's error arm (or nothing, for bare sites).
    Err,
    /// Panic at the site.
    Panic,
    /// Sleep for this many milliseconds at the site.
    Delay(u64),
}

/// A fault plan string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(pub String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// Environment variable consulted by [`arm_from_env`].
pub const ENV_VAR: &str = "MVQ_FAULTS";

#[cfg(feature = "fault-injection")]
mod registry {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    use super::{Action, PlanError};

    struct Site {
        action: Action,
        /// 1-based hit ordinal at which the action fires.
        at: u64,
        hits: u64,
    }

    fn sites() -> &'static Mutex<HashMap<String, Site>> {
        static SITES: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
        SITES.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn parse_clause(clause: &str) -> Result<(String, Site), PlanError> {
        let (site, spec) = clause
            .split_once('=')
            .ok_or_else(|| PlanError(format!("clause `{clause}` is missing `=`")))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(PlanError(format!(
                "clause `{clause}` has an empty site name"
            )));
        }
        let spec = spec.trim();
        let (action_text, at) = match spec.split_once('@') {
            Some((action, ordinal)) => {
                let at: u64 = ordinal
                    .trim()
                    .parse()
                    .map_err(|_| PlanError(format!("bad hit ordinal in `{clause}`")))?;
                if at == 0 {
                    return Err(PlanError(format!(
                        "hit ordinal in `{clause}` is 1-based; `@0` never fires"
                    )));
                }
                (action.trim(), at)
            }
            None => (spec, 1),
        };
        let action = if action_text == "err" {
            Action::Err
        } else if action_text == "panic" {
            Action::Panic
        } else if let Some(ms) = action_text
            .strip_prefix("delay(")
            .and_then(|rest| rest.strip_suffix(')'))
        {
            let ms: u64 = ms
                .trim()
                .parse()
                .map_err(|_| PlanError(format!("bad delay milliseconds in `{clause}`")))?;
            Action::Delay(ms)
        } else {
            return Err(PlanError(format!(
                "unknown action `{action_text}` in `{clause}` (want err | panic | delay(ms))"
            )));
        };
        Ok((
            site.to_owned(),
            Site {
                action,
                at,
                hits: 0,
            },
        ))
    }

    /// Parse and install `plan`, replacing any previously armed plan.
    /// Returns the number of armed sites.
    pub fn arm(plan: &str) -> Result<usize, PlanError> {
        let mut parsed = HashMap::new();
        for clause in plan.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (site, spec) = parse_clause(clause)?;
            parsed.insert(site, spec);
        }
        let count = parsed.len();
        let mut sites = sites().lock().unwrap_or_else(|poison| poison.into_inner());
        *sites = parsed;
        Ok(count)
    }

    /// Remove every armed site and reset all hit counters.
    pub fn disarm_all() {
        sites()
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .clear();
    }

    /// Record a hit at `site`; return the action if this hit is the
    /// armed ordinal. Called by the `point!` macro — production code
    /// should not need it directly.
    pub fn fire(site: &str) -> Option<Action> {
        let mut sites = sites().lock().unwrap_or_else(|poison| poison.into_inner());
        let entry = sites.get_mut(site)?;
        entry.hits += 1;
        (entry.hits == entry.at).then_some(entry.action)
    }

    /// Hit count for `site` since it was armed (`None` if not armed).
    pub fn hits(site: &str) -> Option<u64> {
        sites()
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .get(site)
            .map(|entry| entry.hits)
    }
}

#[cfg(feature = "fault-injection")]
pub use registry::{arm, disarm_all, fire, hits};

/// True when this build can honor fault plans.
#[cfg(feature = "fault-injection")]
pub const fn enabled() -> bool {
    true
}

/// Arm from the `MVQ_FAULTS` environment variable. Unset or empty is
/// `Ok(0)`; a set variable arms the plan it contains.
#[cfg(feature = "fault-injection")]
pub fn arm_from_env() -> Result<usize, PlanError> {
    match std::env::var(ENV_VAR) {
        Ok(plan) if !plan.trim().is_empty() => arm(&plan),
        _ => Ok(0),
    }
}

// ---------------------------------------------------------------------------
// Inert stubs: the same API surface with the feature off, so callers
// compile unconditionally and release builds carry no registry at all.
// ---------------------------------------------------------------------------

/// Inert stub — this build has no failpoint registry.
#[cfg(not(feature = "fault-injection"))]
pub fn arm(_plan: &str) -> Result<usize, PlanError> {
    Ok(0)
}

/// Inert stub — this build has no failpoint registry.
#[cfg(not(feature = "fault-injection"))]
pub fn disarm_all() {}

/// Inert stub — this build has no failpoint registry.
#[cfg(not(feature = "fault-injection"))]
pub fn fire(_site: &str) -> Option<Action> {
    None
}

/// Inert stub — this build has no failpoint registry.
#[cfg(not(feature = "fault-injection"))]
pub fn hits(_site: &str) -> Option<u64> {
    None
}

/// True when this build can honor fault plans.
#[cfg(not(feature = "fault-injection"))]
pub const fn enabled() -> bool {
    false
}

/// Arm from `MVQ_FAULTS`. In a build without `fault-injection` a set
/// variable is an error: the operator asked for faults this binary
/// cannot inject, and a silently unarmed chaos drill is worse than a
/// refusal to start.
#[cfg(not(feature = "fault-injection"))]
pub fn arm_from_env() -> Result<usize, PlanError> {
    match std::env::var(ENV_VAR) {
        Ok(plan) if !plan.trim().is_empty() => Err(PlanError(format!(
            "{ENV_VAR} is set but this binary was built without the \
             `fault-injection` feature"
        ))),
        _ => Ok(0),
    }
}

/// Mark a failpoint. `point!("site")` honors `panic` and `delay(ms)`
/// actions and ignores `err`; `point!("site", expr)` additionally
/// evaluates `expr` (typically `return Err(..)`) when an `err` action
/// fires. Expands to an empty block unless `fault-injection` is on.
#[cfg(feature = "fault-injection")]
#[macro_export]
macro_rules! point {
    ($site:expr) => {
        match $crate::fire($site) {
            Some($crate::Action::Panic) => {
                panic!("mvq_fault: injected panic at failpoint `{}`", $site)
            }
            Some($crate::Action::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms))
            }
            Some($crate::Action::Err) | None => {}
        }
    };
    ($site:expr, $on_err:expr) => {
        match $crate::fire($site) {
            Some($crate::Action::Panic) => {
                panic!("mvq_fault: injected panic at failpoint `{}`", $site)
            }
            Some($crate::Action::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms))
            }
            Some($crate::Action::Err) => $on_err,
            None => {}
        }
    };
}

/// Mark a failpoint (inert: this build has no `fault-injection`).
#[cfg(not(feature = "fault-injection"))]
#[macro_export]
macro_rules! point {
    ($site:expr $(, $on_err:expr)?) => {{}};
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The registry is process-global; serialize tests that arm it.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    #[test]
    fn plan_parses_and_counts_hits() {
        let _gate = lock();
        assert_eq!(arm("a=err;b=panic@3; c = delay(25) @ 2 ;").unwrap(), 3);
        assert_eq!(fire("a"), Some(Action::Err));
        assert_eq!(fire("a"), None, "err@1 fires exactly once");
        assert_eq!(fire("b"), None);
        assert_eq!(fire("b"), None);
        assert_eq!(fire("b"), Some(Action::Panic));
        assert_eq!(fire("b"), None, "one-shot even past the ordinal");
        assert_eq!(fire("c"), None);
        assert_eq!(fire("c"), Some(Action::Delay(25)));
        assert_eq!(hits("b"), Some(4));
        assert_eq!(hits("unarmed"), None);
        disarm_all();
    }

    #[test]
    fn unarmed_sites_never_fire() {
        let _gate = lock();
        disarm_all();
        assert_eq!(fire("anything"), None);
        assert_eq!(hits("anything"), None);
    }

    #[test]
    fn rearming_replaces_the_plan_and_resets_counters() {
        let _gate = lock();
        arm("a=err@2").unwrap();
        assert_eq!(fire("a"), None);
        arm("a=err@2").unwrap();
        assert_eq!(fire("a"), None, "re-arming reset the hit counter");
        assert_eq!(fire("a"), Some(Action::Err));
        arm("b=panic").unwrap();
        assert_eq!(fire("a"), None, "a is gone after re-arm with a new plan");
        disarm_all();
    }

    #[test]
    fn bad_plans_are_rejected() {
        let _gate = lock();
        for plan in [
            "missing-equals",
            "=err",
            "a=explode",
            "a=err@0",
            "a=err@x",
            "a=delay(ms)",
            "a=delay(5",
        ] {
            assert!(arm(plan).is_err(), "plan `{plan}` should not parse");
        }
        // A failed arm must not leave a partial plan behind.
        assert_eq!(fire("a"), None);
    }

    #[test]
    fn empty_plan_arms_nothing() {
        let _gate = lock();
        assert_eq!(arm("").unwrap(), 0);
        assert_eq!(arm(" ; ; ").unwrap(), 0);
    }

    #[test]
    fn point_macro_err_arm_runs_on_err_action() {
        let _gate = lock();
        arm("macro.site=err").unwrap();
        let result: Result<(), &str> = (|| {
            crate::point!("macro.site", return Err("injected"));
            Ok(())
        })();
        assert_eq!(result, Err("injected"));
        // Second call: the site no longer fires.
        let result: Result<(), &str> = (|| {
            crate::point!("macro.site", return Err("injected"));
            Ok(())
        })();
        assert_eq!(result, Ok(()));
        disarm_all();
    }

    #[test]
    fn enabled_reports_the_feature() {
        assert!(enabled());
    }
}
