//! Per-reply checks: every reply is held to the oracle, directly or by
//! being byte-identical to a reply that was.
//!
//! The first reply to a query on one document version is read in full
//! and compared with the oracle's expected answer and with every other
//! query that asks the same question of the same dataset. Every later
//! reply to it must carry the same `xml` bytes, the expected
//! `result_count` and the dataset's current `epoch`. (Only `xml` is
//! compared byte for byte: `eval_us` and `plan_cache` legitimately differ
//! between two replies to one query.)

use std::collections::BTreeMap;

use gql_serve::json::Value;

use crate::oracle::{check, reply_answer};
use crate::workload::{cross_language_pairs, Inputs, QuerySpec, RELOAD_DATASET};

/// How one operation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// The service answered with an error, or the socket failed.
    Failed(String),
    /// The service answered, but wrongly.
    Wrong(String),
}

pub struct Checker<'a> {
    inputs: &'a Inputs,
    queries: Vec<QuerySpec>,
    pairs: Vec<(usize, usize)>,
    /// Verified `(xml, keys)` per (query index, document version).
    reference: BTreeMap<(usize, u8), (String, Vec<String>)>,
    /// Epoch and document version of [`RELOAD_DATASET`]; every other
    /// dataset stays at epoch 1, version 0.
    epoch: u64,
    version: u8,
}

impl<'a> Checker<'a> {
    pub fn new(inputs: &'a Inputs, queries: Vec<QuerySpec>) -> Checker<'a> {
        let pairs = cross_language_pairs(&queries);
        Checker {
            inputs,
            queries,
            pairs,
            reference: BTreeMap::new(),
            epoch: 1,
            version: 0,
        }
    }

    /// The document version the next reload installs.
    pub fn next_version(&self) -> u8 {
        self.version ^ 1
    }

    /// Check a `reload` acknowledgement: the epoch advances by exactly one.
    pub fn reload(&mut self, reply: Result<Value, String>) -> Outcome {
        let v = match reply {
            Ok(v) => v,
            Err(e) => return Outcome::Failed(e),
        };
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            return Outcome::Failed(format!("reload refused: {}", v.render()));
        }
        let ack = v.get("reload");
        let epoch = ack.and_then(|a| a.get("epoch")).and_then(Value::as_u64);
        let dataset = ack.and_then(|a| a.get("dataset")).and_then(Value::as_str);
        if dataset != Some(RELOAD_DATASET) || epoch != Some(self.epoch + 1) {
            return Outcome::Wrong(format!(
                "reload acknowledged {dataset:?} epoch {epoch:?}, expected epoch {}",
                self.epoch + 1
            ));
        }
        self.epoch += 1;
        self.version ^= 1;
        Outcome::Ok
    }

    /// Check the reply to query `qi`.
    pub fn query(&mut self, qi: usize, reply: Result<Value, String>) -> Outcome {
        let spec = self.queries[qi];
        let v = match reply {
            Ok(v) => v,
            Err(e) => return Outcome::Failed(e),
        };
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            return Outcome::Failed(format!("{}: {}", spec.label, v.render()));
        }
        let (version, epoch) = if spec.dataset == RELOAD_DATASET {
            (self.version, self.epoch)
        } else {
            (0, 1)
        };
        let want = self.inputs.expected_for(&spec, version);
        let got_epoch = v.get("epoch").and_then(Value::as_u64);
        let count = v
            .get("result_count")
            .and_then(Value::as_u64)
            .unwrap_or(u64::MAX);
        let xml = v.get("xml").and_then(Value::as_str).unwrap_or("");
        if got_epoch != Some(epoch) {
            return Outcome::Wrong(format!(
                "{} on {}: epoch {got_epoch:?}, expected {epoch}",
                spec.label, spec.dataset
            ));
        }
        if count != want.result_count {
            return Outcome::Wrong(format!(
                "{} on {}: result_count {count}, expected {}",
                spec.label, spec.dataset, want.result_count
            ));
        }
        if let Some((reference, _)) = self.reference.get(&(qi, version)) {
            if reference == xml {
                return Outcome::Ok;
            }
            return Outcome::Wrong(format!(
                "{} on {} v{version}: reply differs from the first reply to the same query",
                spec.label, spec.dataset
            ));
        }
        if let Err(e) = check(spec.question, spec.reply, want, count, xml) {
            return Outcome::Wrong(format!(
                "{} on {} v{version}: {e}",
                spec.label, spec.dataset
            ));
        }
        let keys = match reply_answer(spec.question, spec.reply, xml) {
            Ok(answer) => answer.keys,
            Err(e) => return Outcome::Wrong(e),
        };
        for &(a, b) in &self.pairs {
            let other = if a == qi {
                b
            } else if b == qi {
                a
            } else {
                continue;
            };
            if let Some((_, other_keys)) = self.reference.get(&(other, version)) {
                if *other_keys != keys {
                    return Outcome::Wrong(format!(
                        "{} and {} on {} disagree",
                        spec.label, self.queries[other].label, spec.dataset
                    ));
                }
            }
        }
        self.reference
            .insert((qi, version), (xml.to_string(), keys));
        Outcome::Ok
    }

    pub fn spec(&self, qi: usize) -> QuerySpec {
        self.queries[qi]
    }

    /// Queries answered and verified at least once.
    pub fn verified(&self) -> usize {
        self.reference.len()
    }
}
