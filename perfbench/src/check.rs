//! The answer check: every served answer against the one the engine
//! computes in-process over the same snapshot and parameters.

use crate::loadgen::{Op, OpKind, Record};
use serde_json::Value;
use std::collections::HashMap;
use wikisearch_engine::WikiSearch;

/// The fields of one answer the check compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnswerKey {
    pub central: String,
    pub depth: u64,
    pub score_bits: u64,
    pub nodes: u64,
    pub edges: u64,
}

/// A parsed successful QUERY response.
pub struct QueryReply {
    pub qid: u64,
    /// The engine time the response reports.
    pub ms: f64,
    pub answers: Vec<AnswerKey>,
}

pub fn parse_query_reply(reply: &str) -> Result<QueryReply, String> {
    let doc: Value = serde_json::from_str(reply).map_err(|e| format!("bad JSON: {e}"))?;
    if let Some(err) = doc.get("error") {
        return Err(format!("error document: {err:?}"));
    }
    let field = |v: &Value, k: &str| v.get(k).cloned().ok_or_else(|| format!("missing {k:?}"));
    let num =
        |v: &Value, k: &str| field(v, k)?.as_u64().ok_or_else(|| format!("{k:?} not a count"));
    let answers = field(&doc, "answers")?
        .as_array()
        .ok_or("answers is not an array")?
        .iter()
        .map(|a| {
            Ok(AnswerKey {
                central: field(a, "central")?.as_str().ok_or("central is not text")?.to_string(),
                depth: num(a, "depth")?,
                score_bits: field(a, "score")?.as_f64().ok_or("score is not a number")?.to_bits(),
                nodes: num(a, "nodes")?,
                edges: num(a, "edges")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(QueryReply {
        qid: num(&doc, "qid")?,
        ms: field(&doc, "ms")?.as_f64().ok_or("ms is not a number")?,
        answers,
    })
}

/// Check a diagnostic verb's reply for its shape.
pub fn check_diag_reply(kind: OpKind, reply: &str) -> Result<(), String> {
    let json_with = |key: &str| -> Result<(), String> {
        let doc: Value = serde_json::from_str(reply).map_err(|e| format!("bad JSON: {e}"))?;
        doc.get(key).map(|_| ()).ok_or_else(|| format!("reply lacks {key:?}: {reply}"))
    };
    match kind {
        OpKind::Stats => json_with("served"),
        OpKind::Top => json_with("qps"),
        OpKind::Metrics if reply.contains("ws_build_info") => Ok(()),
        OpKind::Metrics => Err("METRICS lacks ws_build_info".into()),
        OpKind::Query => unreachable!("queries are checked against the engine"),
    }
}

/// Expected answers per query text, computed in-process.
pub struct Oracle<'a> {
    ws: &'a WikiSearch,
    expected: HashMap<String, Vec<AnswerKey>>,
}

impl<'a> Oracle<'a> {
    pub fn new(ws: &'a WikiSearch) -> Self {
        Oracle { ws, expected: HashMap::new() }
    }

    fn expected(&mut self, query: &str) -> &[AnswerKey] {
        let ws = self.ws;
        self.expected.entry(query.to_string()).or_insert_with(|| {
            ws.search(query)
                .answers
                .iter()
                .map(|a| AnswerKey {
                    central: ws.graph().node_text(a.central).to_string(),
                    depth: u64::from(a.depth),
                    score_bits: a.score.to_bits(),
                    nodes: a.nodes.len() as u64,
                    edges: a.edges.len() as u64,
                })
                .collect()
        })
    }

    /// `Err` describes the first difference.
    pub fn check(&mut self, query: &str, served: &QueryReply) -> Result<(), String> {
        let want = self.expected(query);
        if want.len() != served.answers.len() {
            return Err(format!(
                "{query:?}: {} answers served, {} expected",
                served.answers.len(),
                want.len()
            ));
        }
        for (rank, (got, want)) in served.answers.iter().zip(want).enumerate() {
            if got != want {
                return Err(format!("{query:?} answer {rank}: served {got:?}, expected {want:?}"));
            }
        }
        Ok(())
    }
}

/// The tally of checking every exchange of a run.
#[derive(Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub first_errors: Vec<String>,
}

impl Checked {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.first_errors.len() < 5 {
            self.first_errors.push(msg);
        }
    }

    /// Check each record's reply. A failure is a dropped connection or
    /// timeout, an error document, a malformed reply or an answer that
    /// differs from the oracle's. Returns per record the engine time
    /// (`ms`) and qid its response reported (NaN and 0 unless it is a
    /// checked QUERY answer).
    pub fn check<'p>(
        &mut self,
        oracle: &mut Oracle<'_>,
        records: &[Record],
        op_of: impl Fn(&Record) -> &'p Op,
    ) -> Vec<(f64, u64)> {
        let mut served = Vec::with_capacity(records.len());
        for r in records {
            self.attempted += 1;
            let op = op_of(r);
            let mut info = (f64::NAN, 0);
            match (&r.reply, op.kind) {
                (Err(e), _) => self.fail(format!("{}: {e}", op.line)),
                (Ok(reply), OpKind::Query) => match parse_query_reply(reply) {
                    Err(e) => self.fail(format!("{}: {e}", op.line)),
                    Ok(s) => match oracle.check(op.keywords(), &s) {
                        Err(e) => {
                            self.mismatches += 1;
                            self.fail(format!("answer mismatch: {e}"));
                        }
                        Ok(()) => info = (s.ms, s.qid),
                    },
                },
                (Ok(reply), kind) => {
                    if let Err(e) = check_diag_reply(kind, reply) {
                        self.fail(format!("{}: {e}", op.line));
                    }
                }
            }
            served.push(info);
        }
        served
    }
}
