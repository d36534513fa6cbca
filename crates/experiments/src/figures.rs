//! Figure data structures shared by all experiment runners, and the report grid every paper
//! figure is read from.

use p2pgrid_core::SimulationReport;
use p2pgrid_metrics::{format_table, TimeSeries, WorkflowMetrics};

/// One curve of a figure: a legend label and `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. algorithm name or `df=0.2`).
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// An hourly-sampled time series as a curve, x in hours.
    pub fn hourly(label: impl Into<String>, series: &TimeSeries) -> Self {
        let points = series.points().iter();
        Series::new(label, points.map(|&(t, v)| (t.as_hours_f64(), v)).collect())
    }

    /// The series as a JSON value (`{"label": ..., "points": [[x, y], ...]}`).
    pub fn to_json(&self) -> serde::json::Value {
        serde::json::Value::object([
            ("label", self.label.as_str().into()),
            ("points", serde::json::Value::array(self.points.clone())),
        ])
    }

    /// The y value at the given x (exact match), if present.
    pub fn value_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }
}

/// The reports one sweep produced, laid out the way its figures read them: a legend label per
/// row, an x value per point, and `reports[row][point]`.
#[derive(Debug, Clone)]
pub struct ReportGrid {
    /// Legend label of each row, such as an algorithm or a recovery policy.
    pub labels: Vec<String>,
    /// The x value of each point, such as a load factor or an MTBF.
    pub xs: Vec<f64>,
    /// `reports[row][point]`.
    pub reports: Vec<Vec<SimulationReport>>,
}

/// The regenerated data behind one of the paper's figures (or text tables).
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Identifier such as `"fig4"`, `"fig11a"`, `"fcfs-ablation"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// All curves.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Create an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureData {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a curve.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// One curve per grid row, labelled by the row: `metric` of each of its reports against
    /// the point's x.
    pub fn scalar(
        id: &str,
        title: &str,
        x_label: &str,
        y_label: &str,
        grid: &ReportGrid,
        metric: impl Fn(&SimulationReport) -> f64,
    ) -> Self {
        let mut fig = FigureData::new(id, title, x_label, y_label);
        for (label, row) in grid.labels.iter().zip(&grid.reports) {
            let points = grid.xs.iter().zip(row).map(|(&x, r)| (x, metric(r)));
            fig.push_series(Series::new(label.as_str(), points.collect()));
        }
        fig
    }

    /// One curve per report, row by row: its hourly `series` against the hour, labelled by
    /// `label(row label, x)`.
    pub fn hourly(
        id: &str,
        title: &str,
        y_label: &str,
        grid: &ReportGrid,
        label: impl Fn(&str, f64) -> String,
        series: impl Fn(&WorkflowMetrics) -> &TimeSeries,
    ) -> Self {
        let mut fig = FigureData::new(id, title, "hour", y_label);
        for (row_label, row) in grid.labels.iter().zip(&grid.reports) {
            for (&x, report) in grid.xs.iter().zip(row) {
                fig.push_series(Series::hourly(label(row_label, x), series(&report.metrics)));
            }
        }
        fig
    }

    /// The whole figure as a machine-readable JSON document — the artifact `repro --json`
    /// writes, one file per figure, built as a [`json::Value`](serde::json::Value) tree.
    pub fn to_json(&self) -> serde::json::Value {
        serde::json::Value::object([
            ("id", self.id.as_str().into()),
            ("title", self.title.as_str().into()),
            ("x_label", self.x_label.as_str().into()),
            ("y_label", self.y_label.as_str().into()),
            (
                "series",
                serde::json::Value::Array(self.series.iter().map(Series::to_json).collect()),
            ),
        ])
    }

    /// Render as an aligned plain-text table: one row per x value, one column per series.
    pub fn render(&self) -> String {
        let mut out = format!("# {} — {}\n", self.id, self.title);
        if self.series.is_empty() {
            out.push_str("(no data)\n");
            return out;
        }
        // Collect the union of x values in order of first appearance.
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, _) in &s.points {
                if !xs.iter().any(|&e| (e - x).abs() < 1e-9) {
                    xs.push(x);
                }
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let header: Vec<&str> = std::iter::once(self.x_label.as_str())
            .chain(self.series.iter().map(|s| s.label.as_str()))
            .collect();
        let rows: Vec<Vec<String>> = xs
            .iter()
            .map(|&x| {
                std::iter::once(format!("{x:.2}"))
                    .chain(self.series.iter().map(|s| {
                        s.value_at(x)
                            .map(|v| format!("{v:.3}"))
                            .unwrap_or_else(|| "-".to_string())
                    }))
                    .collect()
            })
            .collect();
        out.push_str(&format_table(&header, &rows));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_queries() {
        let s = Series::new("DSMF", vec![(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)]);
        assert_eq!(s.value_at(1.0), Some(2.0));
        assert_eq!(s.value_at(9.0), None);
    }

    #[test]
    fn figure_render_includes_every_series_and_x_value() {
        let mut fig = FigureData::new("fig4", "Throughput", "hour", "workflows finished");
        fig.push_series(Series::new("DSMF", vec![(0.0, 0.0), (1.0, 10.0)]));
        fig.push_series(Series::new("HEFT", vec![(1.0, 5.0), (2.0, 9.0)]));
        let text = fig.render();
        assert!(text.contains("fig4"));
        assert!(text.contains("DSMF"));
        assert!(text.contains("HEFT"));
        // x = 0, 1, 2 all appear; missing cells render as '-'.
        assert!(text.contains("0.00"));
        assert!(text.contains("2.00"));
        assert!(text.contains('-'));
    }

    #[test]
    fn empty_figure_renders_placeholder() {
        let fig = FigureData::new("figX", "Empty", "x", "y");
        assert!(fig.render().contains("(no data)"));
    }

    #[test]
    fn json_export_carries_every_series_and_point() {
        let mut fig = FigureData::new("fig4", "Throughput", "hour", "workflows finished");
        fig.push_series(Series::new("DSMF", vec![(0.0, 0.0), (1.0, 10.0)]));
        fig.push_series(Series::new("HEFT", vec![(2.0, 9.5)]));
        let json = fig.to_json().to_string();
        assert_eq!(
            json,
            "{\"id\":\"fig4\",\"title\":\"Throughput\",\"x_label\":\"hour\",\
             \"y_label\":\"workflows finished\",\"series\":[\
             {\"label\":\"DSMF\",\"points\":[[0,0],[1,10]]},\
             {\"label\":\"HEFT\",\"points\":[[2,9.5]]}]}"
        );
        // The pretty form is what lands on disk; it must stay parseable-looking.
        assert!(fig
            .to_json()
            .to_string_pretty()
            .contains("\"id\": \"fig4\""));
    }
}
