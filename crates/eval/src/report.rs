//! Experiment artefact writing.
//!
//! Every figure binary dumps its structured results as JSON under
//! `target/experiments/` so EXPERIMENTS.md can cite exact numbers and
//! reruns can be diffed.

use echo_obs::json::ToJson;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Default artefact directory, relative to the workspace root.
pub const ARTEFACT_DIR: &str = "target/experiments";

/// Writes `value` as pretty JSON ([`echo_obs::json::Json::to_pretty`])
/// to `<dir>/<name>.json`, creating the directory if needed, and
/// returns the written path.
///
/// The write is atomic and durable (temp file + fsync + rename), so a
/// crash mid-run can never leave a torn artefact that a later
/// EXPERIMENTS.md regeneration would silently cite.
///
/// # Errors
///
/// Returns any I/O error, and [`io::ErrorKind::InvalidData`] without
/// touching the file system when `value` holds a NaN or infinite
/// float.
pub fn write_json<T: ToJson>(dir: &Path, name: &str, value: &T) -> io::Result<PathBuf> {
    let json = value
        .to_json()
        .to_pretty()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    echo_obs::export::write_atomic(&path, json.as_bytes())?;
    Ok(path)
}

/// Writes to the default artefact directory.
///
/// # Errors
///
/// See [`write_json`].
pub fn write_artefact<T: ToJson>(name: &str, value: &T) -> io::Result<PathBuf> {
    write_json(Path::new(ARTEFACT_DIR), name, value)
}

/// Formats a `0.xyz` rate with three decimals, the paper's style.
pub fn rate(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_sim::{FaultKind, SpoofKind};

    /// A directory no concurrently running test process shares.
    fn scratch_dir(test: &str) -> PathBuf {
        std::env::temp_dir().join(format!("echoimage-report-{test}-{}", std::process::id()))
    }

    struct Inner {
        x: f64,
        n: usize,
    }
    echo_obs::json_object!(Inner { x, n });

    /// One member of every shape an artefact holds.
    struct Sample {
        name: String,
        inner: Inner,
        rows: Vec<Inner>,
        pairs: Vec<(String, Inner)>,
        fault: FaultKind,
        attack: SpoofKind,
        empty: Vec<f64>,
        whole: f64,
    }
    echo_obs::json_object!(Sample {
        name,
        inner,
        rows,
        pairs,
        fault,
        attack,
        empty,
        whole
    });

    /// `Sample`'s bytes as the earlier serde-based artefact writer
    /// rendered them; every artefact must keep this format.
    const GOLDEN: &str = r#"{
  "name": "a \"quoted\" name\\",
  "inner": {
    "x": 0.1,
    "n": 3
  },
  "rows": [
    {
      "x": -0.00000025,
      "n": 0
    },
    {
      "x": 12345.0,
      "n": 18446744073709551615
    }
  ],
  "pairs": [
    [
      "pair",
      {
        "x": 1000000000000000000000.0,
        "n": 7
      }
    ]
  ],
  "fault": "BurstInterference",
  "attack": "Replay",
  "empty": [],
  "whole": 2.0
}"#;

    #[test]
    fn artefact_bytes_match_the_golden() {
        let sample = Sample {
            name: "a \"quoted\" name\\".into(),
            inner: Inner { x: 0.1, n: 3 },
            rows: vec![
                Inner { x: -2.5e-7, n: 0 },
                Inner {
                    x: 12345.0,
                    n: usize::MAX,
                },
            ],
            pairs: vec![("pair".into(), Inner { x: 1e21, n: 7 })],
            fault: FaultKind::BurstInterference,
            attack: SpoofKind::Replay,
            empty: vec![],
            whole: 2.0,
        };
        let dir = scratch_dir("golden");
        let path = write_json(&dir, "sample", &sample).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::remove_dir_all(&dir).ok();
        assert_eq!(text, GOLDEN);
    }

    #[test]
    fn writes_and_rereads_json() {
        let dir = scratch_dir("reread");
        let path = write_json(&dir, "sample", &vec![1usize, 2, 3]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::remove_dir_all(&dir).ok();
        assert_eq!(text, "[\n  1,\n  2,\n  3\n]");
    }

    #[test]
    fn non_finite_float_is_invalid_data_and_writes_nothing() {
        let dir = scratch_dir("nan");
        let err = write_json(&dir, "sample", &vec![1.0, f64::NAN]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!dir.exists(), "a failed write created {}", dir.display());
    }

    #[test]
    fn rate_formats_three_decimals() {
        assert_eq!(rate(0.98765), "0.988");
        assert_eq!(rate(1.0), "1.000");
    }
}
