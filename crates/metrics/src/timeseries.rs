//! Periodically sampled time series.

use p2pgrid_sim::SimTime;

/// A named series of `(time, value)` samples, as plotted on the paper's figures.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Create an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name (legend label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a sample.  Samples must be appended in non-decreasing time order.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(time >= last, "samples must be appended in time order");
        }
        self.points.push((time, value));
    }

    /// All samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The final sampled value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut ts = TimeSeries::new("throughput");
        assert!(ts.is_empty());
        ts.push(SimTime::from_secs(0), 0.0);
        ts.push(SimTime::from_secs(10), 5.0);
        ts.push(SimTime::from_secs(20), 9.0);
        assert_eq!(ts.name(), "throughput");
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.last_value(), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new("x");
        ts.push(SimTime::from_secs(10), 1.0);
        ts.push(SimTime::from_secs(5), 2.0);
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let mut ts = TimeSeries::new("x");
        ts.push(SimTime::from_secs(10), 1.0);
        ts.push(SimTime::from_secs(10), 2.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.last_value(), Some(2.0));
    }
}
