//! Output checks. A violation here fails the run outright; it is never
//! folded into the failed-operation count.

use std::collections::{BTreeMap, HashMap, HashSet};

use uba_net::{shard_of, Record};
use uba_sim::NodeId;

/// Agreement and validity of one consensus instance. `Ok(None)` means some
/// correct node did not decide — a failed operation, not a violation.
pub fn consensus(
    outputs: &BTreeMap<NodeId, u64>,
    correct: &[NodeId],
    inputs: &[u64],
) -> Result<Option<u64>, String> {
    let values: HashSet<u64> = outputs.values().copied().collect();
    if values.len() > 1 {
        return Err(format!("agreement violated: decisions {outputs:?}"));
    }
    if let Some(v) = values.iter().next() {
        if !inputs.contains(v) {
            return Err(format!("validity violated: decided {v}, inputs {inputs:?}"));
        }
    }
    let all = correct.iter().all(|id| outputs.contains_key(id));
    Ok(if all { values.into_iter().next() } else { None })
}

/// A networked run must reproduce its simulator twin exactly: the same
/// decision in the same round at every honest member.
pub fn twin(
    net: &BTreeMap<NodeId, (u64, u64)>,
    sim: &BTreeMap<NodeId, (u64, u64)>,
) -> Result<(), String> {
    if net == sim {
        Ok(())
    } else {
        Err(format!(
            "net run diverged from its sim twin: net {net:?} vs sim {sim:?}"
        ))
    }
}

/// Where the service acked one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    pub node: u64,
    pub shard: u32,
    pub seq: u64,
}

/// The submission id a record carries in its first eight payload bytes.
pub fn record_id(record: &Record) -> Option<u64> {
    let head: [u8; 8] = record.payload.get(..8)?.try_into().ok()?;
    Some(u64::from_le_bytes(head))
}

/// Checks the sealed logs of every member against the acks:
/// - every member holds the identical per-shard prefixes;
/// - every record sits in the shard its key maps to, carries the submission
///   `expected` regenerates for its id, and appears once;
/// - every acked submission appears, at the node, shard and sequence
///   number its ack named, and no record appears that was not acked.
///
/// Returns the number of records checked.
pub fn log(
    prefixes: &BTreeMap<NodeId, Vec<Vec<Record>>>,
    shards: u32,
    acked: &HashMap<u64, Ack>,
    expected: impl Fn(u64) -> (String, Vec<u8>),
) -> Result<usize, String> {
    let mut members = prefixes.iter();
    let (&first_id, canonical) = members.next().ok_or("no member reported a log")?;
    for (id, other) in members {
        if other != canonical {
            return Err(format!("members {first_id} and {id} sealed different logs"));
        }
    }
    if canonical.len() != shards as usize {
        return Err(format!(
            "{} shards sealed, {shards} expected",
            canonical.len()
        ));
    }
    let mut seen = HashSet::with_capacity(acked.len());
    for (shard, records) in canonical.iter().enumerate() {
        for record in records {
            let id = record_id(record).ok_or("record without a submission id")?;
            if shard_of(&record.key, shards) as usize != shard {
                return Err(format!(
                    "record {id} in shard {shard}, its key maps elsewhere"
                ));
            }
            let ack = acked
                .get(&id)
                .ok_or_else(|| format!("record {id} appears but was never acked"))?;
            let at = Ack {
                node: record.node,
                shard: shard as u32,
                seq: record.seq,
            };
            if at != *ack {
                return Err(format!("record {id} at {at:?}, acked at {ack:?}"));
            }
            if (record.key.clone(), record.payload.clone()) != expected(id) {
                return Err(format!("record {id} content differs from its submission"));
            }
            if !seen.insert(id) {
                return Err(format!("record {id} appears more than once"));
            }
        }
    }
    if seen.len() != acked.len() {
        return Err(format!(
            "{} acked submissions missing from the log",
            acked.len() - seen.len()
        ));
    }
    Ok(seen.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<NodeId> {
        (1..=n).map(NodeId::new).collect()
    }

    #[test]
    fn consensus_rejects_a_planted_split_decision() {
        let correct = ids(3);
        let mut outputs: BTreeMap<NodeId, u64> = correct.iter().map(|&id| (id, 1)).collect();
        assert_eq!(consensus(&outputs, &correct, &[0, 1, 1]), Ok(Some(1)));
        outputs.insert(correct[2], 0);
        let err = consensus(&outputs, &correct, &[0, 1, 1]).unwrap_err();
        assert!(err.contains("agreement"), "{err}");
    }

    #[test]
    fn consensus_rejects_an_invalid_value_and_flags_non_decision() {
        let correct = ids(2);
        let outputs: BTreeMap<NodeId, u64> = correct.iter().map(|&id| (id, 7)).collect();
        assert!(consensus(&outputs, &correct, &[0, 1])
            .unwrap_err()
            .contains("validity"));
        let partial: BTreeMap<NodeId, u64> = [(correct[0], 1)].into();
        assert_eq!(consensus(&partial, &correct, &[0, 1]), Ok(None));
    }

    #[test]
    fn twin_rejects_a_different_round() {
        let a: BTreeMap<NodeId, (u64, u64)> = [(NodeId::new(1), (1, 5))].into();
        let b: BTreeMap<NodeId, (u64, u64)> = [(NodeId::new(1), (1, 6))].into();
        assert!(twin(&a, &a).is_ok());
        assert!(twin(&a, &b).is_err());
    }

    const SHARDS: u32 = 2;

    fn content(id: u64) -> (String, Vec<u8>) {
        let mut payload = id.to_le_bytes().to_vec();
        payload.extend_from_slice(b"pad");
        (format!("k{id}"), payload)
    }

    /// A well-formed log of submissions 0..n acked at node 9, plus its acks.
    fn good_log(n: u64) -> (Vec<Vec<Record>>, HashMap<u64, Ack>) {
        let mut shards = vec![Vec::new(); SHARDS as usize];
        let mut acked = HashMap::new();
        for id in 0..n {
            let (key, payload) = content(id);
            let shard = shard_of(&key, SHARDS);
            let seq = shards[shard as usize].len() as u64;
            acked.insert(
                id,
                Ack {
                    node: 9,
                    shard,
                    seq,
                },
            );
            shards[shard as usize].push(Record {
                key,
                payload,
                node: 9,
                seq,
            });
        }
        (shards, acked)
    }

    fn members(log: &[Vec<Record>]) -> BTreeMap<NodeId, Vec<Vec<Record>>> {
        ids(3).into_iter().map(|id| (id, log.to_vec())).collect()
    }

    #[test]
    fn log_accepts_an_exactly_once_log() {
        let (log, acked) = good_log(20);
        assert_eq!(super::log(&members(&log), SHARDS, &acked, content), Ok(20));
    }

    #[test]
    fn log_rejects_a_planted_duplicate_record() {
        let (mut log, acked) = good_log(20);
        let dup = log[0][0].clone();
        log[0].push(dup);
        let err = super::log(&members(&log), SHARDS, &acked, content).unwrap_err();
        assert!(
            err.contains("more than once") || err.contains("acked at"),
            "{err}"
        );
    }

    #[test]
    fn log_rejects_missing_unacked_and_divergent_records() {
        let (log, mut acked) = good_log(20);
        acked.insert(
            99,
            Ack {
                node: 9,
                shard: 0,
                seq: 999,
            },
        );
        let err = super::log(&members(&log), SHARDS, &acked, content).unwrap_err();
        assert!(err.contains("missing"), "{err}");

        let (log, mut acked) = good_log(20);
        acked.remove(&3);
        let err = super::log(&members(&log), SHARDS, &acked, content).unwrap_err();
        assert!(err.contains("never acked"), "{err}");

        let (log, acked) = good_log(20);
        let mut split = members(&log);
        split.get_mut(&NodeId::new(2)).unwrap()[1].pop();
        let err = super::log(&split, SHARDS, &acked, content).unwrap_err();
        assert!(err.contains("different logs"), "{err}");
    }
}
