//! The service's JSON request/response schema.
//!
//! Requests implement the vendored `serde` shim's [`Deserialize`] by
//! hand (rather than via derive) so optional fields get defaults and
//! error messages name the offending field; responses implement
//! [`Serialize`] into the shim's `Content` tree and render through
//! `serde_json`. See the README's "Serving & snapshots" section for the
//! wire schema.

use mvq_core::{CostModel, Synthesis};
use serde::{field, Content, Deserialize, Error, Serialize};

use crate::host::{CensusReply, HostStats};

/// A cost-model override: `{"v": 1, "v_dagger": 1, "feynman": 1}`.
#[derive(Debug, Clone, Copy)]
pub struct ModelSpec {
    /// Controlled-V cost.
    pub v: u32,
    /// Controlled-V⁺ cost.
    pub v_dagger: u32,
    /// Feynman (CNOT) cost.
    pub feynman: u32,
}

impl ModelSpec {
    /// The [`CostModel`] this spec names.
    ///
    /// # Errors
    ///
    /// A message naming the zero weight (the search needs positive
    /// 2-qubit costs).
    pub fn to_model(self) -> Result<CostModel, String> {
        if self.v == 0 || self.v_dagger == 0 || self.feynman == 0 {
            return Err("cost-model weights must be positive".to_string());
        }
        Ok(CostModel::weighted(self.v, self.v_dagger, self.feynman))
    }
}

impl<'de> Deserialize<'de> for ModelSpec {
    fn deserialize(content: &Content) -> Result<Self, Error> {
        let entries = content
            .as_map()
            .ok_or_else(|| Error::custom("`model` must be an object"))?;
        Ok(Self {
            v: u32::deserialize(field(entries, "v")?)?,
            v_dagger: u32::deserialize(field(entries, "v_dagger")?)?,
            feynman: u32::deserialize(field(entries, "feynman")?)?,
        })
    }
}

/// An optional field from a serialized map (`None` when absent or JSON
/// `null`).
fn optional<'de, T: Deserialize<'de>>(
    entries: &[(String, Content)],
    key: &str,
) -> Result<Option<T>, Error> {
    match entries.iter().find(|(name, _)| name == key) {
        None => Ok(None),
        Some((_, Content::Null)) => Ok(None),
        Some((_, value)) => T::deserialize(value).map(Some),
    }
}

/// `POST /synthesize` body.
#[derive(Debug, Clone)]
pub struct SynthesizeRequest {
    /// The target reversible function, in cycle notation over the
    /// `2^wires` binary patterns (e.g. `"(5,7,6,8)"`).
    pub target: String,
    /// Cost bound (defaults to the host's admission limit).
    pub cb: Option<u32>,
    /// Cost-model override (defaults to unit costs).
    pub model: Option<ModelSpec>,
    /// Register size (defaults to the paper's 3; 4 routes to a wide
    /// engine host).
    pub wires: Option<usize>,
    /// Serving strategy: `"uni"`, `"bidi"`, or `"auto"` (the default —
    /// the planner serves warm-frontier targets from the cache and
    /// routes deeper ones through the bidirectional path). Validated
    /// against [`mvq_core::Strategy`] by the server.
    pub strategy: Option<String>,
    /// The longest this request may block behind the single-flight
    /// expansion, in milliseconds, before it sheds with a 503 +
    /// `Retry-After`. Capped by the server's configured maximum, which
    /// also serves as the default when the field is absent.
    pub deadline_ms: Option<u64>,
}

impl<'de> Deserialize<'de> for SynthesizeRequest {
    fn deserialize(content: &Content) -> Result<Self, Error> {
        let entries = content
            .as_map()
            .ok_or_else(|| Error::custom("request body must be a JSON object"))?;
        Ok(Self {
            target: String::deserialize(field(entries, "target")?)?,
            cb: optional(entries, "cb")?,
            model: optional(entries, "model")?,
            wires: optional(entries, "wires")?,
            strategy: optional(entries, "strategy")?,
            deadline_ms: optional(entries, "deadline_ms")?,
        })
    }
}

/// `POST /census` body.
#[derive(Debug, Clone)]
pub struct CensusRequest {
    /// Highest cost level to report (defaults to the paper's 6 on 3
    /// wires; 4 on 4 wires, where the frontier grows ~11× per level).
    pub cb: Option<u32>,
    /// Cost-model override (defaults to unit costs).
    pub model: Option<ModelSpec>,
    /// Register size (defaults to the paper's 3; 4 routes to a wide
    /// engine host).
    pub wires: Option<usize>,
}

impl<'de> Deserialize<'de> for CensusRequest {
    fn deserialize(content: &Content) -> Result<Self, Error> {
        let entries = content
            .as_map()
            .ok_or_else(|| Error::custom("request body must be a JSON object"))?;
        Ok(Self {
            cb: optional(entries, "cb")?,
            model: optional(entries, "model")?,
            wires: optional(entries, "wires")?,
        })
    }
}

fn obj(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn uints(values: &[usize]) -> Content {
    Content::Seq(values.iter().map(|&v| Content::U64(v as u64)).collect())
}

/// `POST /synthesize` reply.
#[derive(Debug, Clone)]
pub struct SynthesizeReply {
    /// The bound the query ran with.
    pub cb: u32,
    /// The result, if the target is expressible within the bound.
    pub synthesis: Option<Synthesis>,
}

impl Serialize for SynthesizeReply {
    fn serialize(&self) -> Content {
        match &self.synthesis {
            None => obj(vec![
                ("found", Content::Bool(false)),
                ("cb", Content::U64(self.cb.into())),
            ]),
            Some(syn) => obj(vec![
                ("found", Content::Bool(true)),
                ("cb", Content::U64(self.cb.into())),
                ("cost", Content::U64(syn.cost.into())),
                ("circuit", Content::Str(syn.circuit.to_string())),
                (
                    "not_layer",
                    Content::Seq(
                        syn.not_layer
                            .iter()
                            .map(|g| Content::Str(g.to_string()))
                            .collect(),
                    ),
                ),
                (
                    "implementation_count",
                    Content::U64(syn.implementation_count as u64),
                ),
            ]),
        }
    }
}

impl Serialize for CensusReply {
    fn serialize(&self) -> Content {
        obj(vec![
            ("cb", Content::U64(self.cb.into())),
            ("g_counts", uints(&self.g_counts)),
            ("b_counts", uints(&self.b_counts)),
            ("classes_found", Content::U64(self.classes_found as u64)),
            ("a_size", Content::U64(self.a_size as u64)),
        ])
    }
}

impl Serialize for HostStats {
    fn serialize(&self) -> Content {
        obj(vec![
            (
                "model",
                obj(vec![
                    ("v", Content::U64(self.model.0.into())),
                    ("v_dagger", Content::U64(self.model.1.into())),
                    ("feynman", Content::U64(self.model.2.into())),
                ]),
            ),
            ("wires", Content::U64(self.wires as u64)),
            (
                "synthesize_requests",
                Content::U64(self.synthesize_requests),
            ),
            ("census_requests", Content::U64(self.census_requests)),
            ("cache_hits", Content::U64(self.cache_hits)),
            ("cache_misses", Content::U64(self.cache_misses)),
            ("expansions", Content::U64(self.expansions)),
            (
                "single_flight_waits",
                Content::U64(self.single_flight_waits),
            ),
            ("rejected", Content::U64(self.rejected)),
            ("rebuilds", Content::U64(self.rebuilds)),
            ("deadline_timeouts", Content::U64(self.deadline_timeouts)),
            (
                "completed",
                self.completed
                    .map_or(Content::Null, |c| Content::U64(c.into())),
            ),
            ("classes_found", Content::U64(self.classes_found as u64)),
            ("a_size", Content::U64(self.a_size as u64)),
            ("threads", Content::U64(self.threads as u64)),
        ])
    }
}

/// Renders any [`Serialize`] value to a JSON string (infallible for the
/// integer/string trees this module builds).
///
/// If serialization ever does fail (it cannot for the trees this module
/// builds — no non-finite floats), the reply degrades to a hand-built
/// error object rather than panicking the worker thread.
pub fn render<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value)
        .unwrap_or_else(|_| r#"{"error":"internal: reply serialization failed"}"#.to_string())
}

struct ErrorReply<'a>(&'a str);

impl Serialize for ErrorReply<'_> {
    fn serialize(&self) -> Content {
        obj(vec![("error", Content::Str(self.0.to_string()))])
    }
}

/// `{"error": detail}`.
pub fn error_body(detail: &str) -> String {
    render(&ErrorReply(detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_request_parses_with_defaults() {
        let req: SynthesizeRequest = serde_json::from_str(r#"{"target": "(5,7,6,8)"}"#).unwrap();
        assert_eq!(req.target, "(5,7,6,8)");
        assert!(req.cb.is_none());
        assert!(req.model.is_none());
        assert!(req.wires.is_none());
        assert!(req.strategy.is_none());
        assert!(req.deadline_ms.is_none());
    }

    #[test]
    fn synthesize_request_parses_the_deadline_field() {
        let req: SynthesizeRequest =
            serde_json::from_str(r#"{"target": "(7,8)", "deadline_ms": 250}"#).unwrap();
        assert_eq!(req.deadline_ms, Some(250));
        // JSON null means "use the server default", like an absent field.
        let req: SynthesizeRequest =
            serde_json::from_str(r#"{"target": "(7,8)", "deadline_ms": null}"#).unwrap();
        assert!(req.deadline_ms.is_none());
    }

    #[test]
    fn synthesize_request_parses_the_strategy_field() {
        let req: SynthesizeRequest =
            serde_json::from_str(r#"{"target": "(7,8)", "strategy": "bidi"}"#).unwrap();
        assert_eq!(req.strategy.as_deref(), Some("bidi"));
        // JSON null means "use the default", like an absent field.
        let req: SynthesizeRequest =
            serde_json::from_str(r#"{"target": "(7,8)", "strategy": null}"#).unwrap();
        assert!(req.strategy.is_none());
    }

    #[test]
    fn requests_parse_the_wires_field() {
        let req: SynthesizeRequest =
            serde_json::from_str(r#"{"target": "(15,16)", "wires": 4}"#).unwrap();
        assert_eq!(req.wires, Some(4));
        let req: CensusRequest = serde_json::from_str(r#"{"cb": 2, "wires": 4}"#).unwrap();
        assert_eq!(req.wires, Some(4));
    }

    #[test]
    fn synthesize_request_parses_full_form() {
        let req: SynthesizeRequest = serde_json::from_str(
            r#"{"target": "(7,8)", "cb": 6, "model": {"v": 2, "v_dagger": 2, "feynman": 1}}"#,
        )
        .unwrap();
        assert_eq!(req.cb, Some(6));
        let model = req.model.unwrap().to_model().unwrap();
        assert_eq!(model.weights(), (2, 2, 1));
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        let err = serde_json::from_str::<SynthesizeRequest>(r#"{"cb": 3}"#).unwrap_err();
        assert!(err.to_string().contains("target"), "{err}");
        let err = serde_json::from_str::<SynthesizeRequest>("[1,2]").unwrap_err();
        assert!(err.to_string().contains("object"), "{err}");
        let err =
            serde_json::from_str::<SynthesizeRequest>(r#"{"target": "(7,8)", "model": {"v": 1}}"#)
                .unwrap_err();
        assert!(err.to_string().contains("v_dagger"), "{err}");
    }

    #[test]
    fn zero_weight_model_is_rejected() {
        let spec = ModelSpec {
            v: 0,
            v_dagger: 1,
            feynman: 1,
        };
        assert!(spec.to_model().is_err());
    }

    #[test]
    fn census_reply_renders_counts() {
        let reply = CensusReply {
            cb: 2,
            g_counts: vec![1, 6, 24],
            b_counts: vec![1, 18, 162],
            classes_found: 31,
            a_size: 181,
        };
        let json = render(&reply);
        assert!(json.contains("\"g_counts\":[1,6,24]"), "{json}");
        assert!(json.contains("\"classes_found\":31"), "{json}");
    }

    #[test]
    fn not_found_reply_has_no_cost() {
        let json = render(&SynthesizeReply {
            cb: 4,
            synthesis: None,
        });
        assert_eq!(json, r#"{"found":false,"cb":4}"#);
    }
}
