//! Checks served replies against the oracle and against physics.
//!
//! Every distinct `(shape, reply body)` pair a run produced is checked
//! once, after the timed window: the served cost and implementation
//! count must equal the serial-engine oracle's, and the served circuit —
//! NOT layer included — must realize the exact target on `mvq_sim`'s
//! Hilbert-space unitary, which is independent of the search.

use std::collections::HashMap;

use mvq_core::{Circuit, EXPECTED_TABLE_2};

use crate::json;
use crate::traffic::{Catalogue, Expect};

/// Distinct replies per shape, with how many requests received each.
#[derive(Debug, Default)]
pub struct Replies(HashMap<(usize, Vec<u8>), u64>);

impl Replies {
    pub fn record(&mut self, shape: usize, body: &[u8]) {
        if let Some(count) = self.0.get_mut(&(shape, body.to_vec())) {
            *count += 1;
        } else {
            self.0.insert((shape, body.to_vec()), 1);
        }
    }

    /// Every distinct reply body.
    pub fn bodies(&self) -> Vec<Vec<u8>> {
        let mut bodies: Vec<Vec<u8>> = self.0.keys().map(|(_, body)| body.clone()).collect();
        bodies.sort();
        bodies.dedup();
        bodies
    }

    pub fn merge(&mut self, other: Replies) {
        for (key, count) in other.0 {
            *self.0.entry(key).or_default() += count;
        }
    }

    /// Checks every distinct reply; returns the number of requests whose
    /// reply was wrong and a description of the first few.
    pub fn verify(&self, catalogue: &Catalogue) -> (u64, Vec<String>) {
        let mut failed = 0;
        let mut notes = Vec::new();
        let mut keys: Vec<_> = self.0.iter().collect();
        keys.sort();
        for ((shape, body), count) in keys {
            if let Err(why) = check_reply(catalogue, *shape, body) {
                failed += count;
                if notes.len() < 5 {
                    notes.push(format!("{}: {why}", catalogue.shapes[*shape].label));
                }
            }
        }
        (failed, notes)
    }
}

pub fn check_reply(catalogue: &Catalogue, shape: usize, body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
    match catalogue.shapes[shape].expect {
        Expect::Health => text
            .contains(r#""status":"ok""#)
            .then_some(())
            .ok_or_else(|| format!("unhealthy: {text}")),
        Expect::Metrics => text
            .contains("# TYPE ")
            .then_some(())
            .ok_or_else(|| "scrape holds no metric families".to_string()),
        Expect::Census(cb) => {
            let doc = json::parse(text)?;
            let counts: Vec<u64> = json::get(&doc, "g_counts")
                .and_then(serde::Content::as_seq)
                .ok_or("no g_counts")?
                .iter()
                .filter_map(json::as_u64)
                .collect();
            let want: Vec<u64> = EXPECTED_TABLE_2[..=cb as usize]
                .iter()
                .map(|&c| c as u64)
                .collect();
            (counts == want)
                .then_some(())
                .ok_or_else(|| format!("census {counts:?}, want {want:?}"))
        }
        Expect::Synth(t) => {
            let target = &catalogue.targets[t];
            let doc = json::parse(text)?;
            if json::get(&doc, "found") != Some(&serde::Content::Bool(true)) {
                return Err(format!("not found: {text}"));
            }
            let cost = json::u64_field(&doc, "cost").ok_or("no cost")?;
            let count = json::u64_field(&doc, "implementation_count").ok_or("no count")?;
            if (cost, count) != (u64::from(target.cost), target.implementations as u64) {
                return Err(format!(
                    "cost {cost} / {count} implementations, oracle {} / {}",
                    target.cost, target.implementations
                ));
            }
            let served: Circuit = json::str_field(&doc, "circuit")
                .ok_or("no circuit")?
                .parse()
                .map_err(|e| format!("unparsable circuit: {e}"))?;
            let circuit = Circuit::new(3, served.gates().to_vec());
            if circuit.cost_under(&target.model.cost_model()) != target.cost {
                return Err(format!("circuit {circuit} does not cost {}", target.cost));
            }
            circuit
                .verify_against_binary_perm(&target.perm)
                .then_some(())
                .ok_or_else(|| format!("circuit {circuit} does not realize {}", target.perm))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{enumerate, Model, Oracle};
    use crate::traffic::WarmTraffic;
    use mvq_core::{CostModel, SynthesisEngine};
    use mvq_logic::GateLibrary;

    /// Serial answers to every shape of a warm mix, rendered the way the
    /// server renders them, pass; a corrupted count or circuit fails.
    #[test]
    fn served_answers_are_checked_against_oracle_and_unitary() {
        let mut engine =
            SynthesisEngine::with_threads(GateLibrary::standard(3), CostModel::unit(), 1);
        let oracle = Oracle::from_classes(Model::Unit, enumerate(&mut engine, 5));
        let mut catalogue = crate::traffic::Catalogue::default();
        let warm = WarmTraffic::generate(&oracle, 4);
        catalogue.targets = warm.catalogue.targets.clone();
        catalogue.shapes = warm.catalogue.shapes.clone();
        let mut replies = Replies::default();
        for (i, shape) in catalogue.shapes.iter().enumerate() {
            let body = match shape.expect {
                Expect::Synth(t) => {
                    let s = engine.synthesize(&catalogue.targets[t].perm, 7).unwrap();
                    format!(
                        r#"{{"found":true,"cb":7,"cost":{},"circuit":"{}","not_layer":[],"implementation_count":{}}}"#,
                        s.cost, s.circuit, s.implementation_count
                    )
                }
                Expect::Census(cb) => {
                    let counts: Vec<String> = EXPECTED_TABLE_2[..=cb as usize]
                        .iter()
                        .map(|c| c.to_string())
                        .collect();
                    format!(r#"{{"cb":{cb},"g_counts":[{}]}}"#, counts.join(","))
                }
                Expect::Health => r#"{"status":"ok","uptime_ms":1}"#.to_string(),
                Expect::Metrics => "# TYPE x counter\nx 1\n".to_string(),
            };
            replies.record(i, body.as_bytes());
            replies.record(i, body.as_bytes());
        }
        let (failed, notes) = replies.verify(&catalogue);
        assert_eq!(failed, 0, "{notes:?}");

        let hit = warm.shapes_of(crate::traffic::Kind::Hit)[0];
        let Expect::Synth(t) = catalogue.shapes[hit].expect else {
            panic!()
        };
        let s = engine.synthesize(&catalogue.targets[t].perm, 7).unwrap();
        let wrong_count = format!(
            r#"{{"found":true,"cost":{},"circuit":"{}","implementation_count":{}}}"#,
            s.cost,
            s.circuit,
            s.implementation_count + 1
        );
        assert!(check_reply(&catalogue, hit, wrong_count.as_bytes()).is_err());
        let wrong_circuit = format!(
            r#"{{"found":true,"cost":{},"circuit":"{}","implementation_count":{}}}"#,
            s.cost,
            s.circuit.adjoint(),
            s.implementation_count
        );
        let realizes_inverse = s
            .circuit
            .adjoint()
            .verify_against_binary_perm(&catalogue.targets[t].perm);
        assert_eq!(
            check_reply(&catalogue, hit, wrong_circuit.as_bytes()).is_ok(),
            realizes_inverse
        );
    }
}
