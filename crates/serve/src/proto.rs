//! The `ised` wire protocol: framed JSON requests and responses, plus
//! the bounds-checked translation from request fields to library
//! configuration.
//!
//! Every request is one JSON object with an `"op"` member; every
//! response is one JSON object with an `"ok"` member. Failures carry
//! `"error"` (human-readable) and `"kind"` (stable machine-readable
//! tag) — a malformed or hostile request can never kill the connection,
//! let alone the worker thread.
//!
//! Two framings share a connection and may interleave (see
//! [`crate::wire`]); each response uses its request's framing:
//!
//! - **Line** (legacy): one JSON document per `\n`-terminated line,
//!   capped at [`crate::wire::MAX_LINE_BYTES`].
//! - **Length-prefixed**: `#<decimal byte count>\n`, the payload, `\n`.
//!   Carries documents with embedded newlines and payloads up to
//!   [`crate::wire::MAX_FRAME_BYTES`].
//!
//! | op         | request fields                          | response |
//! |------------|-----------------------------------------|----------|
//! | `ping`     | —                                       | `{"ok":true,"op":"pong"}` |
//! | `submit`   | `ir` (text IR)                          | app hash + shape |
//! | `select`   | `app` (hash) or `ir`, optional `config` | selection summary |
//! | `rtl`      | `app` (hash) or `ir`, optional `config` | Verilog + area |
//! | `verify`   | `app` (hash) or `ir`, optional `config`, `vectors`, `seed` | differential-test report |
//! | `lint`     | `app` (hash) or `ir`, optional `config` | static-analysis diagnostics (`A001`..) |
//! | `stats`    | —                                       | cache/request counters |
//! | `drain`    | — (`ised`) / `shard` index (router)     | durability receipt; `ised` exits, the router recycles the shard warm |
//! | `shutdown` | —                                       | ack, then the server drains |
//!
//! `isegen-router` speaks the same protocol on behalf of a shard fleet:
//! `ping` and `stats` are answered by the router itself (`stats`
//! aggregates per-shard health and counters), `drain` takes a numeric
//! `"shard"` and restarts that shard warm from its disk log, `shutdown`
//! stops the fleet, and everything else is consistent-hash routed by
//! canonical-IR key with retries, failover and an in-process fallback.
//!
//! `config` members (all optional): `io` (`[inputs, outputs]`),
//! `max_ises`, `reuse`, `threads`, `max_passes`,
//! `restarts`, `weights` (`{"merit":…, "io_penalty":…, "affinity":…,
//! "growth":…, "independence":…}`, each finite with magnitude at most
//! `GainWeights::MAX_MAGNITUDE`, `merit` and `io_penalty` ≥ 0) and
//! `multilevel`
//! (`{"min_coarse_ops":…, "max_levels":…, "boundary_band":…}`, each
//! member optional). Defaults are the paper's headline configuration.
//! `threads` is the thread budget of every cut search: the K-L
//! trajectory portfolio fans out over it, with the selection
//! byte-identical at every count. It is bounded by [`MAX_THREADS`], not
//! [`MAX_KNOB`], because every search of the request starts that many
//! OS threads. `multilevel` enables the
//! coarsen→K-L→uncoarsen pipeline on blocks whose free-node count
//! exceeds `min_coarse_ops`; smaller blocks run the single-level search
//! unchanged. Unknown members are ignored.

use crate::json::Json;
use isegen_core::{GainWeights, IoConstraints, IseConfig, MultilevelConfig, SearchConfig};
use std::fmt;

/// Upper bound on `max_ises`, `max_passes`, `restarts`, the `multilevel`
/// members, `io` components and `vectors` in a request — generous for
/// real use, small enough that one hostile request cannot pin a worker
/// thread forever.
pub const MAX_KNOB: u64 = 4096;

/// Upper bound on `threads` in a request. Each cut search of a `select`
/// starts up to this many scoped OS threads (fewer when the search has
/// fewer trajectories), so the bound is on threads per search, not on
/// work.
pub const MAX_THREADS: u64 = 64;

/// A structured protocol failure, rendered as an error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable machine-readable tag (`parse`, `protocol`, `ir`,
    /// `collision`, `not_found`, `rtl`, `internal`).
    pub kind: &'static str,
    /// Human-readable description.
    pub message: String,
    /// 1-based source line, when the error points into submitted text
    /// IR (`ir`-kind errors).
    pub line: Option<u32>,
    /// 1-based source column of the offending token, when it could be
    /// located in the line.
    pub column: Option<u32>,
}

impl ProtoError {
    /// Builds an error with the given tag.
    pub fn new(kind: &'static str, message: impl Into<String>) -> ProtoError {
        ProtoError {
            kind,
            message: message.into(),
            line: None,
            column: None,
        }
    }

    /// Attaches a source position (1-based line, optional column) to
    /// the error — the `"line"`/`"column"` members of the response.
    pub fn with_position(mut self, line: u32, column: Option<u32>) -> ProtoError {
        self.line = Some(line);
        self.column = column;
        self
    }

    /// The one-line JSON error response.
    pub fn to_response(&self) -> Json {
        let mut members = vec![
            ("ok", Json::Bool(false)),
            ("kind", Json::from(self.kind)),
            ("error", Json::from(self.message.clone())),
        ];
        if let Some(line) = self.line {
            members.push(("line", Json::from(u64::from(line))));
        }
        if let Some(column) = self.column {
            members.push(("column", Json::from(u64::from(column))));
        }
        Json::obj(members)
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// A fully resolved request configuration: driver + search + threads.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestConfig {
    /// Problem-2 driver configuration.
    pub ise: IseConfig,
    /// K-L search configuration.
    pub search: SearchConfig,
    /// Thread budget of every cut search (1 = sequential). Never
    /// changes results — portfolio output is byte-identical at every
    /// thread count — so it is deliberately *not* part of the selection
    /// memo key.
    pub threads: usize,
}

impl Default for RequestConfig {
    fn default() -> Self {
        RequestConfig {
            ise: IseConfig::paper_default(),
            search: SearchConfig::default(),
            threads: 1,
        }
    }
}

/// `obj[key]` as an integer in `1..=max`, `default` when absent; `path`
/// names the enclosing object in the error.
fn bounded(
    obj: &Json,
    path: &str,
    key: &'static str,
    default: usize,
    max: u64,
) -> Result<usize, ProtoError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => match v.as_u64() {
            Some(n) if (1..=max).contains(&n) => Ok(n as usize),
            _ => Err(ProtoError::new(
                "protocol",
                format!("{path}.{key} must be an integer in 1..={max}"),
            )),
        },
    }
}

fn weight(obj: &Json, key: &'static str, default: f64) -> Result<f64, ProtoError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| {
            ProtoError::new("protocol", format!("config.weights.{key} must be a number"))
        }),
    }
}

/// Parses the optional `config` member of a `select`/`rtl` request.
///
/// Every field is validated against library preconditions — e.g. `io`
/// components must be ≥ 1 because [`IoConstraints::new`] panics on zero;
/// the protocol turns what would be a panic into a structured error.
pub fn parse_config(config: Option<&Json>) -> Result<RequestConfig, ProtoError> {
    let mut out = RequestConfig::default();
    let Some(obj) = config else { return Ok(out) };
    if !matches!(obj, Json::Obj(_)) {
        return Err(ProtoError::new("protocol", "config must be an object"));
    }
    if let Some(io) = obj.get("io") {
        let parts = io.as_array().unwrap_or(&[]);
        let (Some(i), Some(o)) = (
            parts.first().and_then(Json::as_u64),
            parts.get(1).and_then(Json::as_u64),
        ) else {
            return Err(ProtoError::new(
                "protocol",
                "config.io must be [max_inputs, max_outputs]",
            ));
        };
        if !(1..=MAX_KNOB).contains(&i) || !(1..=MAX_KNOB).contains(&o) {
            return Err(ProtoError::new(
                "protocol",
                format!("config.io components must be in 1..={MAX_KNOB}"),
            ));
        }
        out.ise.io = IoConstraints::new(i as u32, o as u32);
    }
    out.ise.max_ises = bounded(obj, "config", "max_ises", out.ise.max_ises, MAX_KNOB)?;
    if let Some(reuse) = obj.get("reuse") {
        out.ise.reuse_matching = reuse
            .as_bool()
            .ok_or_else(|| ProtoError::new("protocol", "config.reuse must be a boolean"))?;
    }
    out.threads = bounded(obj, "config", "threads", out.threads, MAX_THREADS)?;
    out.search.max_passes = bounded(obj, "config", "max_passes", out.search.max_passes, MAX_KNOB)?;
    out.search.restarts = bounded(obj, "config", "restarts", out.search.restarts, MAX_KNOB)?;
    if let Some(ml) = obj.get("multilevel") {
        if !matches!(ml, Json::Obj(_)) {
            return Err(ProtoError::new(
                "protocol",
                "config.multilevel must be an object",
            ));
        }
        let d = MultilevelConfig::default();
        out.search = out.search.with_multilevel(
            MultilevelConfig::new()
                .with_min_coarse_ops(bounded(
                    ml,
                    "config.multilevel",
                    "min_coarse_ops",
                    d.min_coarse_ops,
                    MAX_KNOB,
                )?)
                .with_max_levels(bounded(
                    ml,
                    "config.multilevel",
                    "max_levels",
                    d.max_levels,
                    MAX_KNOB,
                )?)
                .with_boundary_band(bounded(
                    ml,
                    "config.multilevel",
                    "boundary_band",
                    d.boundary_band,
                    MAX_KNOB,
                )?),
        );
    }
    if let Some(w) = obj.get("weights") {
        if !matches!(w, Json::Obj(_)) {
            return Err(ProtoError::new(
                "protocol",
                "config.weights must be an object",
            ));
        }
        let d = GainWeights::default();
        out.search.weights = GainWeights::new(
            weight(w, "merit", d.merit())?,
            weight(w, "io_penalty", d.io_penalty())?,
            weight(w, "affinity", d.affinity())?,
            weight(w, "growth", d.growth())?,
            weight(w, "independence", d.independence())?,
        )
        .map_err(|e| ProtoError::new("protocol", format!("config.weights.{e}")))?;
    }
    Ok(out)
}

/// Parses the optional `vectors` / `seed` members of a `verify`
/// request, returning `(vectors, seed)`.
///
/// `vectors` defaults to 32 and is bounded by [`MAX_KNOB`] — a verify
/// request runs three evaluators per vector per ISE, so an unbounded
/// count would be a cheap way to pin a worker. `seed` is any u64
/// (defaults to the harness default) so CI can reproduce a failure.
pub fn parse_verify_params(request: &Json) -> Result<(usize, u64), ProtoError> {
    let vectors = match request.get("vectors") {
        None => 32,
        Some(v) => match v.as_u64() {
            Some(n) if (1..=MAX_KNOB).contains(&n) => n as usize,
            _ => {
                return Err(ProtoError::new(
                    "protocol",
                    format!("vectors must be an integer in 1..={MAX_KNOB}"),
                ))
            }
        },
    };
    let seed = match request.get("seed") {
        None => 0x5eed,
        Some(v) => v.as_u64().ok_or_else(|| {
            ProtoError::new("protocol", "seed must be an unsigned 64-bit integer")
        })?,
    };
    Ok((vectors, seed))
}

/// Formats an application hash the way the protocol exchanges it.
pub fn format_hash(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses a hash produced by [`format_hash`].
pub fn parse_hash(s: &str) -> Result<u64, ProtoError> {
    if s.len() == 16 {
        if let Ok(h) = u64::from_str_radix(s, 16) {
            return Ok(h);
        }
    }
    Err(ProtoError::new(
        "protocol",
        format!("{s:?} is not a 16-hex-digit app hash"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn default_when_config_absent() {
        let cfg = parse_config(None).unwrap();
        assert_eq!(cfg, RequestConfig::default());
        assert_eq!(cfg.ise, IseConfig::paper_default());
    }

    #[test]
    fn full_config_round_trip() {
        let j = json::parse(
            r#"{"io":[6,3],"max_ises":8,"reuse":false,"threads":4,
                "max_passes":2,"restarts":1,
                "weights":{"merit":2.0,"io_penalty":10.0}}"#,
        )
        .unwrap();
        let cfg = parse_config(Some(&j)).unwrap();
        assert_eq!(cfg.ise.io, IoConstraints::new(6, 3));
        assert_eq!(cfg.ise.max_ises, 8);
        assert!(!cfg.ise.reuse_matching);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.search.max_passes, 2);
        assert_eq!(cfg.search.restarts, 1);
        assert_eq!(cfg.search.weights.merit(), 2.0);
        assert_eq!(cfg.search.weights.io_penalty(), 10.0);
        // unspecified weights keep their defaults
        assert_eq!(
            cfg.search.weights.affinity(),
            GainWeights::default().affinity()
        );
        // an unknown member (e.g. an old client's `portfolio_threads`)
        // is ignored
        let j = json::parse(r#"{"threads":8,"portfolio_threads":0}"#).unwrap();
        assert_eq!(parse_config(Some(&j)).unwrap().threads, 8);
    }

    #[test]
    fn multilevel_config_parses_with_defaults() {
        // Absent → multilevel stays off.
        let j = json::parse(r#"{"threads":2}"#).unwrap();
        assert_eq!(parse_config(Some(&j)).unwrap().search.multilevel, None);
        // Empty object → on, library defaults.
        let j = json::parse(r#"{"multilevel":{}}"#).unwrap();
        assert_eq!(
            parse_config(Some(&j)).unwrap().search.multilevel,
            Some(MultilevelConfig::default())
        );
        // Partial object → unspecified members keep their defaults.
        let j = json::parse(r#"{"multilevel":{"min_coarse_ops":256,"boundary_band":3}}"#).unwrap();
        let ml = parse_config(Some(&j)).unwrap().search.multilevel.unwrap();
        assert_eq!(ml.min_coarse_ops, 256);
        assert_eq!(ml.max_levels, MultilevelConfig::default().max_levels);
        assert_eq!(ml.boundary_band, 3);
    }

    #[test]
    fn hostile_multilevel_configs_are_structured_errors() {
        let cases = [
            r#"{"multilevel":true}"#,
            r#"{"multilevel":"on"}"#,
            r#"{"multilevel":[512]}"#,
            r#"{"multilevel":{"min_coarse_ops":0}}"#,
            r#"{"multilevel":{"min_coarse_ops":1e9}}"#,
            r#"{"multilevel":{"min_coarse_ops":"big"}}"#,
            r#"{"multilevel":{"min_coarse_ops":3.5}}"#,
            r#"{"multilevel":{"min_coarse_ops":4294967296}}"#,
            r#"{"multilevel":{"max_levels":0}}"#,
            r#"{"multilevel":{"max_levels":-1}}"#,
            r#"{"multilevel":{"boundary_band":0}}"#,
            r#"{"multilevel":{"boundary_band":99999999}}"#,
        ];
        for text in cases {
            let j = json::parse(text).unwrap();
            let err = parse_config(Some(&j)).unwrap_err();
            assert_eq!(err.kind, "protocol", "{text}");
            if text.contains(':') && text.contains("coarse") {
                assert!(err.message.contains("config.multilevel.min_coarse_ops"));
            }
        }
    }

    #[test]
    fn threads_have_their_own_small_bound() {
        // Parse-only: no search runs, so no thread is started.
        let j = json::parse(r#"{"threads":64}"#).unwrap();
        assert_eq!(parse_config(Some(&j)).unwrap().threads, 64);
        let j = json::parse(r#"{"threads":65}"#).unwrap();
        let err = parse_config(Some(&j)).unwrap_err();
        assert_eq!(err.kind, "protocol");
        assert_eq!(err.message, "config.threads must be an integer in 1..=64");
        // The other knobs keep the wide bound.
        let j = json::parse(r#"{"restarts":4096,"max_passes":4096}"#).unwrap();
        assert_eq!(parse_config(Some(&j)).unwrap().search.restarts, 4096);
    }

    #[test]
    fn hostile_configs_are_structured_errors() {
        // Each of these would panic or spin somewhere in the library if
        // passed through unchecked (IoConstraints::new asserts non-zero;
        // huge knobs would pin a worker).
        let cases = [
            r#"{"io":[0,2]}"#,
            r#"{"io":[4]}"#,
            r#"{"io":"wide"}"#,
            r#"{"io":[4,-2]}"#,
            r#"{"max_ises":0}"#,
            r#"{"threads":0}"#,
            r#"{"threads":-4}"#,
            r#"{"threads":1e9}"#,
            r#"{"threads":"many"}"#,
            r#"{"threads":65}"#,
            r#"{"threads":4097}"#,
            r#"{"threads":4294967296}"#,
            r#"{"threads":3.5}"#,
            r#"{"max_passes":2.5}"#,
            r#"{"restarts":99999999}"#,
            r#"{"reuse":"yes"}"#,
            r#"{"weights":{"merit":"big"}}"#,
            r#"{"weights":[1,2,3]}"#,
            r#"{"weights":{"merit":null}}"#,
            // GainWeights::new rejects these: negative merit/io_penalty,
            // non-finite (1e400 parses to +inf) and over-cap values.
            r#"{"weights":{"merit":-1}}"#,
            r#"{"weights":{"io_penalty":1e400}}"#,
            r#"{"weights":{"affinity":-1e400}}"#,
            r#"{"weights":{"io_penalty":-0.5}}"#,
            r#"{"weights":{"growth":1e13}}"#,
        ];
        for text in cases {
            let j = json::parse(text).unwrap();
            let err = parse_config(Some(&j)).unwrap_err();
            assert_eq!(err.kind, "protocol", "{text}");
        }
        let j = json::parse(r#"{"weights":{"merit":-1}}"#).unwrap();
        assert_eq!(
            parse_config(Some(&j)).unwrap_err().message,
            "config.weights.merit must be >= 0, got -1"
        );
        // Zero and negative structural weights are valid.
        let j = json::parse(r#"{"weights":{"affinity":-2,"growth":0,"independence":-1}}"#).unwrap();
        assert_eq!(
            parse_config(Some(&j)).unwrap().search.weights.affinity(),
            -2.0
        );
    }

    #[test]
    fn verify_params_bounds() {
        let ok = json::parse(r#"{"op":"verify","vectors":64,"seed":7}"#).unwrap();
        assert_eq!(parse_verify_params(&ok).unwrap(), (64, 7));
        let defaults = json::parse(r#"{"op":"verify"}"#).unwrap();
        assert_eq!(parse_verify_params(&defaults).unwrap(), (32, 0x5eed));
        for text in [
            r#"{"vectors":0}"#,
            r#"{"vectors":-1}"#,
            r#"{"vectors":1e9}"#,
            r#"{"vectors":"lots"}"#,
            r#"{"vectors":2.5}"#,
            r#"{"vectors":4097}"#,
            r#"{"seed":"abc"}"#,
            r#"{"seed":-1}"#,
            r#"{"seed":1.5}"#,
        ] {
            let j = json::parse(text).unwrap();
            let err = parse_verify_params(&j).unwrap_err();
            assert_eq!(err.kind, "protocol", "{text}");
        }
    }

    #[test]
    fn hash_round_trip() {
        let h = 0x0123_4567_89ab_cdefu64;
        assert_eq!(parse_hash(&format_hash(h)).unwrap(), h);
        assert!(parse_hash("xyz").is_err());
        assert!(parse_hash("123").is_err());
        assert!(parse_hash("00112233445566778").is_err());
    }
}
