//! Machine-readable benchmark reports (`BENCH_search.json`).
//!
//! The perf trajectory of the search engine is tracked from PR 5 onward:
//! every bench driver that measures the hot path emits a small JSON file —
//! `BENCH_search.json` by convention — so CI can archive one artifact per
//! run and regressions show up as diffs between artifacts rather than as
//! anecdotes in log output.
//!
//! A report is a flat two-level structure — named suites of named numeric
//! metrics — written and read as a shape mapping over the workspace's one
//! JSON codec ([`quartz_ir::json`]). Keys keep insertion order; integral
//! values print as integers, and non-finite values are encoded as `null`
//! rather than producing invalid JSON.
//!
//! ```
//! use quartz_bench::report::BenchReport;
//!
//! let mut report = BenchReport::new("service_throughput");
//! report
//!     .suite("startup")
//!     .metric("generate_secs", 1.25)
//!     .metric("load_secs", 0.004);
//! let json = report.to_json();
//! assert!(json.contains("\"generate_secs\": 1.25"));
//! ```

use quartz_ir::json::{self, Json};
use std::io;
use std::path::Path;

/// Conventional file name for the search-engine perf artifact.
pub const BENCH_SEARCH_FILE: &str = "BENCH_search.json";

/// One named group of metrics (a benchmark configuration, a table row, a
/// phase — whatever the driver measures as a unit).
#[derive(Debug, Clone, Default)]
pub struct BenchSuite {
    metrics: Vec<(String, f64)>,
}

impl BenchSuite {
    /// Records a metric, keeping insertion order; re-recording a key
    /// overwrites its value in place.
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        match self.metrics.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((key.to_string(), value)),
        }
        self
    }

    /// The recorded value of `key`, if any.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The metrics in insertion order.
    pub fn metrics(&self) -> impl Iterator<Item = (&str, f64)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// A benchmark report: which driver produced it, and its metric suites.
#[derive(Debug, Clone)]
pub struct BenchReport {
    source: String,
    suites: Vec<(String, BenchSuite)>,
}

impl BenchReport {
    /// Creates an empty report attributed to `source` (the driver name).
    pub fn new(source: &str) -> Self {
        BenchReport {
            source: source.to_string(),
            suites: Vec::new(),
        }
    }

    /// The suite named `name`, created empty on first access.
    pub fn suite(&mut self, name: &str) -> &mut BenchSuite {
        if let Some(pos) = self.suites.iter().position(|(n, _)| n == name) {
            return &mut self.suites[pos].1;
        }
        self.suites.push((name.to_string(), BenchSuite::default()));
        &mut self.suites.last_mut().expect("just pushed").1
    }

    /// Number of suites recorded so far.
    pub fn len(&self) -> usize {
        self.suites.len()
    }

    /// Returns `true` when no suite has been recorded.
    pub fn is_empty(&self) -> bool {
        self.suites.is_empty()
    }

    /// Encodes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let suites = self
            .suites
            .iter()
            .map(|(name, suite)| {
                let metrics = suite
                    .metrics
                    .iter()
                    .map(|(key, value)| (key.clone(), metric_json(*value)))
                    .collect();
                (name.clone(), Json::Object(metrics))
            })
            .collect();
        Json::Object(vec![
            ("source".to_string(), Json::Str(self.source.clone())),
            ("schema_version".to_string(), Json::Int(1)),
            ("suites".to_string(), Json::Object(suites)),
        ])
        .pretty()
    }

    /// The driver name the report is attributed to.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The suites in insertion order.
    pub fn suites(&self) -> impl Iterator<Item = (&str, &BenchSuite)> {
        self.suites.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// The suite named `name`, if recorded (read-only counterpart of
    /// [`BenchReport::suite`]).
    pub fn get_suite(&self, name: &str) -> Option<&BenchSuite> {
        self.suites.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Decodes a report from the JSON shape [`BenchReport::to_json`] emits —
    /// the flat two-level `source`/`schema_version`/`suites` structure with
    /// numeric (or `null`) metric values. `null` metrics decode as NaN,
    /// mirroring the encoder. Rejects anything structurally different with a
    /// positioned error message; unknown top-level keys are an error too, so
    /// a schema bump is loud rather than silently lossy.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        // A shape error is reported at the value its child-index path reaches.
        let fail = |path: &[usize], message: String| json::locate(text, path, message).to_string();
        let Json::Object(members) = &value else {
            return Err(fail(&[], "expected the report to be an object".into()));
        };
        let mut source: Option<String> = None;
        let mut suites: Vec<(String, BenchSuite)> = Vec::new();
        for (i, (key, value)) in members.iter().enumerate() {
            match (key.as_str(), value) {
                ("source", Json::Str(s)) => source = Some(s.clone()),
                ("schema_version", v) if metric_value(v) == Some(1.0) => {}
                ("schema_version", v) => {
                    return Err(fail(&[i], format!("unsupported schema_version {v}")))
                }
                ("suites", Json::Object(named)) => {
                    for (j, (name, suite_value)) in named.iter().enumerate() {
                        let Json::Object(metrics) = suite_value else {
                            return Err(fail(&[i, j], format!("suite {name:?} is not an object")));
                        };
                        let mut suite = BenchSuite::default();
                        for (k, (metric, v)) in metrics.iter().enumerate() {
                            let Some(v) = metric_value(v) else {
                                return Err(fail(
                                    &[i, j, k],
                                    format!("metric {name}/{metric} is not a number or null"),
                                ));
                            };
                            suite.metric(metric, v);
                        }
                        suites.push((name.clone(), suite));
                    }
                }
                ("source" | "suites", _) => {
                    return Err(fail(&[i], format!("{key:?} has the wrong type")))
                }
                (other, _) => return Err(fail(&[i], format!("unknown top-level key {other:?}"))),
            }
        }
        Ok(BenchReport {
            source: source.ok_or_else(|| fail(&[], "missing \"source\"".into()))?,
            suites,
        })
    }

    /// Writes the JSON encoding to `path`, replacing any previous report.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json()).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("writing bench report {}: {e}", path.display()),
            )
        })
    }
}

/// A metric as a JSON value: integral values (below 1e15) as integers,
/// others as floats (non-finite ones print as `null`).
fn metric_json(v: f64) -> Json {
    if v == v.trunc() && v.abs() < 1e15 {
        Json::Int(v as i128)
    } else {
        Json::Float(v)
    }
}

/// A metric read back: any JSON number, or `null` as NaN (mirroring the
/// encoder).
fn metric_value(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        Json::Null => Some(f64::NAN),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_encodes_suites_in_insertion_order() {
        let mut report = BenchReport::new("unit-test");
        report
            .suite("throughput")
            .metric("circuits_per_sec", 12.5)
            .metric("threads", 4.0);
        report.suite("startup").metric("generate_secs", 0.75);
        assert_eq!(report.len(), 2);
        let json = report.to_json();
        assert!(json.contains("\"source\": \"unit-test\""));
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"circuits_per_sec\": 12.5"));
        assert!(json.contains("\"threads\": 4"));
        let throughput = json.find("\"throughput\"").unwrap();
        let startup = json.find("\"startup\"").unwrap();
        assert!(throughput < startup, "insertion order must be preserved");
    }

    #[test]
    fn metrics_overwrite_in_place_and_read_back() {
        let mut report = BenchReport::new("x");
        report.suite("s").metric("k", 1.0).metric("k", 2.0);
        assert_eq!(report.suite("s").get("k"), Some(2.0));
        assert_eq!(report.suite("s").metrics.len(), 1);
    }

    #[test]
    fn strings_are_escaped_and_nonfinite_numbers_become_null() {
        let mut report = BenchReport::new("quo\"te\n");
        report.suite("s").metric("nan", f64::NAN);
        let json = report.to_json();
        assert!(json.contains("\"quo\\\"te\\n\""));
        assert!(json.contains("\"nan\": null"));
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let report = BenchReport::new("none");
        assert!(report.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"suites\": {}"));
    }

    #[test]
    fn parse_round_trips_the_encoder() {
        let mut report = BenchReport::new("round\"trip\n");
        report
            .suite("throughput/1")
            .metric("circuits_per_sec", 12.5)
            .metric("iterations", 320.0)
            .metric("nan", f64::NAN);
        report.suite("empty");
        let back = BenchReport::parse(&report.to_json()).unwrap();
        assert_eq!(back.source(), "round\"trip\n");
        assert_eq!(back.len(), 2);
        let suite = back.get_suite("throughput/1").unwrap();
        assert_eq!(suite.get("circuits_per_sec"), Some(12.5));
        assert_eq!(suite.get("iterations"), Some(320.0));
        assert!(suite.get("nan").unwrap().is_nan());
        assert!(back.get_suite("empty").unwrap().metrics().next().is_none());
        // An empty report round-trips too.
        let empty = BenchReport::new("none");
        assert_eq!(BenchReport::parse(&empty.to_json()).unwrap().len(), 0);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(BenchReport::parse("").is_err());
        assert!(BenchReport::parse("{}").is_err(), "missing source");
        assert!(BenchReport::parse("{\"source\": \"x\"} trailing").is_err());
        assert!(
            BenchReport::parse("{\"source\": \"x\", \"extra\": 1}").is_err(),
            "unknown keys are loud"
        );
        assert!(
            BenchReport::parse("{\"source\": \"x\", \"schema_version\": 2, \"suites\": {}}")
                .is_err(),
            "future schema versions are loud"
        );
    }

    #[test]
    fn parse_reads_the_pre_codec_layout() {
        // A fragment in the layout of the hand-rolled encoder the shared
        // codec replaced: integral metrics as integers, fractions in `{}`
        // decimal form (no exponent), `null` for non-finite values.
        let old = r#"{
  "source": "service_throughput",
  "schema_version": 1,
  "suites": {
    "throughput/t1/generated": {
      "threads": 1,
      "total_best_cost": 844,
      "circuits_per_sec": 1.6361489001979574
    },
    "seen_probe": {
      "fx_probe_secs": 0.00000001384284496307373,
      "identity_speedup": null
    },
    "empty": {}
  }
}
"#;
        let report = BenchReport::parse(old).unwrap();
        assert_eq!(report.source(), "service_throughput");
        assert_eq!(report.len(), 3);
        let t1 = report.get_suite("throughput/t1/generated").unwrap();
        assert_eq!(t1.get("threads"), Some(1.0));
        assert_eq!(t1.get("total_best_cost"), Some(844.0));
        assert_eq!(t1.get("circuits_per_sec"), Some(1.6361489001979574));
        let probe = report.get_suite("seen_probe").unwrap();
        assert_eq!(probe.get("fx_probe_secs"), Some(1.384284496307373e-8));
        assert!(probe.get("identity_speedup").unwrap().is_nan());
        assert!(report
            .get_suite("empty")
            .unwrap()
            .metrics()
            .next()
            .is_none());
        // Shape errors are positioned at the offending value.
        let err = BenchReport::parse("{\"source\": \"x\",\n \"suites\": {\"s\": {\"k\": \"v\"}}}")
            .unwrap_err();
        assert!(err.contains("s/k"), "{err}");
        assert!(err.contains("line 2, column 24 (byte 39)"), "{err}");
    }

    #[test]
    fn write_creates_the_file() {
        let mut report = BenchReport::new("writer");
        report.suite("s").metric("v", 3.25);
        let path = std::env::temp_dir().join("quartz_bench_report_test.json");
        report.write(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, report.to_json());
        let _ = std::fs::remove_file(&path);
    }
}
