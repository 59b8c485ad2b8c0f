//! The persistent run ledger: an append-only JSONL store of bench/eval
//! run records, one JSON object per line.
//!
//! Every `bench_json` (and, through it, every regression check) appends
//! one [`RunRecord`] carrying the provenance needed to compare runs
//! *longitudinally* instead of per-PR: host fingerprint, git revision,
//! cargo profile, a config+seed fingerprint, the per-stage wall-clock
//! medians, the detection-accuracy summary (ROC AUC / EER) and the full
//! obs metrics snapshot. The regression sentinel
//! (`bench_json --check`) reads the ledger back and compares the newest
//! run against same-host baselines with noise-aware thresholds;
//! `obs_report` renders the same comparison as a longitudinal report.
//!
//! Design points:
//!
//! * **Append-only JSONL.** One record per line; writers never rewrite
//!   existing bytes, so concurrent readers and a crashed writer cannot
//!   corrupt history — at worst the *tail* line is truncated.
//! * **Corrupt-tail recovery.** [`Ledger::read`] parses line by line
//!   and skips (while counting) anything that does not parse or lacks
//!   required fields, so a truncated tail costs exactly the records on
//!   the damaged lines. [`Ledger::append`] additionally guards the
//!   append point: if the file does not end in a newline (a previous
//!   writer died mid-line), it writes one first so the new record can
//!   never be glued onto the corpse.
//! * **Schema versioning.** Every record carries `"schema"`; records
//!   written by a *newer* schema than this build understands are
//!   skipped (and counted) instead of misread. Unknown extra fields are
//!   ignored, so minor additions stay compatible both ways.
//! * **Zero dependencies.** Like the rest of this crate the format is
//!   hand-rendered and hand-parsed; the small recursive-descent JSON
//!   reader in this module ([`Json`]) is shared with the report tools.
//!
//! Nothing here depends on the `obs` feature: reading a ledger and
//! checking thresholds work in uninstrumented builds (the CI smoke step
//! runs `bench_json --check --dry-run` without `obs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// The ledger schema this build writes and the newest it will read.
pub const SCHEMA: u32 = 1;

// ---------------------------------------------------------------------
// A minimal JSON value + parser (hand-rolled, like every format in this
// workspace).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (f64 is exact for every integer this workspace
    /// stores: nanosecond medians and snapshot sums stay far below
    /// 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i == p.b.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects negatives and
    /// non-integers beyond float rounding).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(n.round() as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as object members.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn lit(&mut self, s: &str, v: Json) -> Option<Json> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Some(v)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        match *self.b.get(self.i)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{');
        let mut members = Vec::new();
        self.ws();
        if self.eat(b'}') {
            return Some(Json::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return None;
            }
            self.ws();
            members.push((key, self.value()?));
            self.ws();
            if self.eat(b',') {
                continue;
            }
            return self.eat(b'}').then_some(Json::Obj(members));
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[');
        let mut items = Vec::new();
        self.ws();
        if self.eat(b']') {
            return Some(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            if self.eat(b',') {
                continue;
            }
            return self.eat(b']').then_some(Json::Arr(items));
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            match *self.b.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.i += 1;
                    let e = *self.b.get(self.i)?;
                    self.i += 1; // past the escape character
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: require the low half.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return None;
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return None;
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi // lone low surrogates fail from_u32
                            };
                            out.push(char::from_u32(cp)?);
                        }
                        _ => return None,
                    }
                }
                // Raw control characters are invalid inside JSON
                // strings; everything else is UTF-8 passed through.
                c if c < 0x20 => return None,
                _ => {
                    let start = self.i;
                    while let Some(&c) = self.b.get(self.i) {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).ok()?);
                }
            }
        }
    }

    /// Reads exactly 4 hex digits starting at `i`, leaving `i` past the
    /// last one.
    fn hex4(&mut self) -> Option<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = *self.b.get(self.i)? as char;
            v = v * 16 + c.to_digit(16)?;
            self.i += 1;
        }
        Some(v)
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.i;
        while let Some(&c) = self.b.get(self.i) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        if start == self.i {
            return None;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Json::Num)
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A 16-hex-digit FNV-1a fingerprint of a config/seed description
/// string — stable across runs and hosts, cheap enough to stamp into
/// every record.
pub fn fingerprint(config: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in config.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

// ---------------------------------------------------------------------
// The record.

/// One persisted bench/eval run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Ledger schema the record was written under.
    pub schema: u32,
    /// Seconds since the Unix epoch at record time.
    pub ts_unix: u64,
    /// Run label (`bench_json --label`).
    pub label: String,
    /// Host fingerprint (CPU model + logical cores) — baseline grouping
    /// key; cross-host comparisons are exactly what the sentinel must
    /// *not* do.
    pub host: String,
    /// Git revision at measurement time (short hash, `-dirty` suffix
    /// when the tree had uncommitted changes, `unknown` outside a
    /// checkout).
    pub git_rev: String,
    /// Cargo profile the binary was built under (`release` / `dev`).
    pub profile: String,
    /// Human-readable config+seed description (iteration counts, master
    /// seeds); [`fingerprint`] of this string keys config-compatible
    /// baselines.
    pub config: String,
    /// Median wall-clock nanoseconds per bench stage.
    pub stages_ns: BTreeMap<String, u64>,
    /// Full-method ROC AUC on the fixed-seed eval, when measured.
    pub auc: Option<f64>,
    /// Full-method equal error rate on the fixed-seed eval.
    pub eer: Option<f64>,
    /// The obs metrics snapshot (`snapshot_json`) taken over the run,
    /// stored verbatim as a string so span/histogram quantiles can be
    /// compared across runs. `None` in uninstrumented builds.
    pub metrics: Option<String>,
}

impl RunRecord {
    /// The config+seed fingerprint of this record.
    pub fn config_fingerprint(&self) -> String {
        fingerprint(&self.config)
    }

    /// Renders the record as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = format!(
            "{{\"schema\":{},\"ts_unix\":{},\"label\":\"{}\",\"host\":\"{}\",\
             \"git_rev\":\"{}\",\"profile\":\"{}\",\"config\":\"{}\",\
             \"config_fp\":\"{}\",\"stages_ns\":{{",
            self.schema,
            self.ts_unix,
            esc(&self.label),
            esc(&self.host),
            esc(&self.git_rev),
            esc(&self.profile),
            esc(&self.config),
            self.config_fingerprint(),
        );
        for (i, (name, ns)) in self.stages_ns.iter().enumerate() {
            let comma = if i + 1 < self.stages_ns.len() {
                ","
            } else {
                ""
            };
            let _ = write!(s, "\"{}\":{ns}{comma}", esc(name));
        }
        s.push('}');
        if let Some(auc) = self.auc {
            let _ = write!(s, ",\"auc\":{auc:.6}");
        }
        if let Some(eer) = self.eer {
            let _ = write!(s, ",\"eer\":{eer:.6}");
        }
        if let Some(metrics) = &self.metrics {
            let _ = write!(s, ",\"metrics\":\"{}\"", esc(metrics));
        }
        s.push('}');
        s
    }

    /// Rebuilds a record from a parsed line. `None` when required
    /// fields are missing or mistyped (the caller counts it corrupt).
    pub fn from_json(v: &Json) -> Option<RunRecord> {
        let schema = v.get("schema")?.as_u64()? as u32;
        let mut stages_ns = BTreeMap::new();
        for (name, ns) in v.get("stages_ns")?.as_obj()? {
            stages_ns.insert(name.clone(), ns.as_u64()?);
        }
        Some(RunRecord {
            schema,
            ts_unix: v.get("ts_unix")?.as_u64()?,
            label: v.get("label")?.as_str()?.to_string(),
            host: v.get("host")?.as_str()?.to_string(),
            git_rev: v.get("git_rev")?.as_str()?.to_string(),
            profile: v.get("profile")?.as_str()?.to_string(),
            config: v.get("config")?.as_str()?.to_string(),
            stages_ns,
            auc: v.get("auc").and_then(Json::as_f64),
            eer: v.get("eer").and_then(Json::as_f64),
            metrics: v.get("metrics").and_then(Json::as_str).map(str::to_string),
        })
    }
}

// ---------------------------------------------------------------------
// The store.

/// What a [`Ledger::read`] recovered.
#[derive(Debug, Default)]
pub struct LedgerRead {
    /// Records in file (append) order.
    pub records: Vec<RunRecord>,
    /// Lines that failed to parse or lacked required fields (a crashed
    /// writer's truncated tail, hand-editing damage).
    pub corrupt_lines: usize,
    /// Well-formed records written by a schema newer than [`SCHEMA`].
    pub newer_schema: usize,
}

/// Handle on one append-only JSONL ledger file.
#[derive(Debug, Clone)]
pub struct Ledger {
    path: PathBuf,
}

impl Ledger {
    /// Points at a ledger file (which need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> Ledger {
        Ledger { path: path.into() }
    }

    /// The underlying path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record as a new line, creating the file if missing.
    /// If the current tail is not newline-terminated (a previous writer
    /// died mid-record) a newline is written first, so the damaged line
    /// stays damaged *alone* and this record starts clean.
    pub fn append(&self, record: &RunRecord) -> std::io::Result<()> {
        let mut f = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)?;
        let len = f.seek(SeekFrom::End(0))?;
        if len > 0 {
            f.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            f.read_exact(&mut last)?;
            if last[0] != b'\n' {
                f.write_all(b"\n")?;
            }
        }
        f.write_all(record.to_line().as_bytes())?;
        f.write_all(b"\n")?;
        f.flush()
    }

    /// Reads every recoverable record. A missing file is an empty
    /// ledger, not an error; damaged and too-new lines are counted, not
    /// fatal.
    pub fn read(&self) -> std::io::Result<LedgerRead> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LedgerRead::default()),
            Err(e) => return Err(e),
        };
        let mut out = LedgerRead::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match Json::parse(line).as_ref().and_then(RunRecord::from_json) {
                Some(rec) if rec.schema > SCHEMA => out.newer_schema += 1,
                Some(rec) => out.records.push(rec),
                None => out.corrupt_lines += 1,
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_round_trips_the_shapes_the_ledger_uses() {
        let v = Json::parse(r#"{"a":1,"b":-2.5e3,"c":"x\n\"y\\zA","d":[1,true,null],"e":{}}"#)
            .expect("parse");
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(-2500.0));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\n\"y\\zA"));
        assert_eq!(
            v.get("d").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Bool(true), Json::Null])
        );
        assert_eq!(v.get("e").unwrap().as_obj(), Some(&[][..]));
    }

    #[test]
    fn json_parser_rejects_garbage_and_truncation() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1}tail",
            "{\"a\":\"unterminated",
            "{\"schema\":1,\"trunca",
        ] {
            assert!(Json::parse(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn json_parser_handles_surrogate_pairs() {
        let v = Json::parse(r#"{"s":"😀"}"#).expect("raw utf-8");
        assert_eq!(v.get("s").unwrap().as_str(), Some("😀"));
        let v = Json::parse("{\"s\":\"\\ud83d\\ude00\"}").expect("escaped pair");
        assert_eq!(v.get("s").unwrap().as_str(), Some("😀"));
        assert!(Json::parse(r#"{"s":"\ud83d"}"#).is_none(), "lone surrogate");
    }

    #[test]
    fn record_line_round_trips() {
        let mut stages = BTreeMap::new();
        stages.insert("end_to_end_trial".to_string(), 17_900_000u64);
        stages.insert("mfcc_1s_audio".to_string(), 1_150_000u64);
        let rec = RunRecord {
            schema: SCHEMA,
            ts_unix: 1_723_300_000,
            label: "post".to_string(),
            host: "cpu \"x\", 8 logical cores".to_string(),
            git_rev: "abc123-dirty".to_string(),
            profile: "release".to_string(),
            config: "iters=15;best_of=1".to_string(),
            stages_ns: stages,
            auc: Some(0.9731),
            eer: Some(0.0417),
            metrics: Some("{\n  \"counters\": {}\n}".to_string()),
        };
        let line = rec.to_line();
        assert!(!line.contains('\n'), "JSONL lines must be single-line");
        let parsed = RunRecord::from_json(&Json::parse(&line).expect("parse")).expect("fields");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes() {
        assert_eq!(fingerprint("a"), fingerprint("a"));
        assert_ne!(fingerprint("iters=15"), fingerprint("iters=16"));
        assert_eq!(fingerprint("").len(), 16);
    }
}
