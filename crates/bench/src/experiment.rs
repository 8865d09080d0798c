//! Experiment records: named series keyed to a paper figure/table,
//! serialized to JSON for `EXPERIMENTS.md` tooling and plotting.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// One curve of an experiment: `(x, y)` points with a legend label.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NamedSeries {
    /// Legend label, e.g. `"C=4"` or `"R=1.6"`.
    pub label: String,
    /// `(x, y)` points in plot order.
    pub points: Vec<(f64, f64)>,
}

impl NamedSeries {
    /// Creates an empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        NamedSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn push(&mut self, x: f64, y: f64) -> &mut Self {
        self.points.push((x, y));
        self
    }
}

/// A reproduced figure or table: id, axes, parameters and curves.
///
/// # Examples
///
/// ```
/// use ace_bench::{ExperimentRecord, NamedSeries};
/// let mut rec = ExperimentRecord::new("fig07", "Traffic vs optimization steps");
/// rec.param("peers", "4000");
/// let mut s = NamedSeries::new("C=4");
/// s.push(0.0, 100.0).push(1.0, 80.0);
/// rec.add_series(s);
/// let json = rec.to_json().unwrap();
/// assert!(json.contains("fig07"));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Stable id matching DESIGN.md (`fig07`, `table01`, `ext_cache`, …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Free-form parameters (peer count, seeds, …), sorted for stable output.
    pub params: BTreeMap<String, String>,
    /// The curves.
    pub series: Vec<NamedSeries>,
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentRecord {
            id: id.into(),
            title: title.into(),
            params: BTreeMap::new(),
            series: Vec::new(),
        }
    }

    /// Records a parameter.
    pub fn param(&mut self, key: impl Into<String>, value: impl ToString) -> &mut Self {
        self.params.insert(key.into(), value.to_string());
        self
    }

    /// Adds a completed series.
    pub fn add_series(&mut self, s: NamedSeries) -> &mut Self {
        self.series.push(s);
        self
    }

    /// Finds a series by label.
    pub fn series_by_label(&self, label: &str) -> Option<&NamedSeries> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if serialization fails (practically impossible for
    /// this data shape).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Writes `<dir>/<id>.json`, creating `dir` if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let json = self.to_json().map_err(io::Error::other)?;
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentRecord {
        let mut rec = ExperimentRecord::new("fig99", "Test figure");
        rec.param("seed", 7).param("peers", 100);
        let mut s = NamedSeries::new("C=4");
        s.push(1.0, 2.0).push(2.0, 1.5);
        rec.add_series(s);
        rec
    }

    #[test]
    fn json_round_trip() {
        let rec = sample();
        let json = rec.to_json().unwrap();
        let back: ExperimentRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn series_lookup_and_last_y() {
        let rec = sample();
        let s = rec.series_by_label("C=4").unwrap();
        assert_eq!(s.points.last(), Some(&(2.0, 1.5)));
        assert!(rec.series_by_label("C=8").is_none());
    }

    #[test]
    fn writes_file_to_dir() {
        let dir = std::env::temp_dir().join("ace_bench_experiment_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = sample().write_to_dir(&dir).unwrap();
        assert!(path.ends_with("fig99.json"));
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("Test figure"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn params_are_sorted_in_output() {
        let mut rec = ExperimentRecord::new("x", "y");
        rec.param("zeta", 1).param("alpha", 2);
        let json = rec.to_json().unwrap();
        let a = json.find("alpha").unwrap();
        let z = json.find("zeta").unwrap();
        assert!(a < z);
    }
}
