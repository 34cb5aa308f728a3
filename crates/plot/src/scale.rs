//! Axis scales and tick generation.

/// A one-dimensional mapping from data space to pixel space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    domain: (f64, f64),
    range: (f64, f64),
    log: bool,
}

impl Scale {
    /// A linear scale from `domain` to `range`.
    ///
    /// # Panics
    ///
    /// Panics if the domain is degenerate or non-finite.
    pub fn linear(domain: (f64, f64), range: (f64, f64)) -> Self {
        assert!(
            domain.0.is_finite() && domain.1.is_finite() && domain.0 < domain.1,
            "invalid domain {domain:?}"
        );
        Scale {
            domain,
            range,
            log: false,
        }
    }

    /// A base-10 logarithmic scale; the domain must be strictly positive.
    ///
    /// # Panics
    ///
    /// Panics if the domain is not positive or degenerate.
    pub fn log10(domain: (f64, f64), range: (f64, f64)) -> Self {
        assert!(
            domain.0 > 0.0 && domain.1 > domain.0 && domain.1.is_finite(),
            "log scale needs a positive domain, got {domain:?}"
        );
        Scale {
            domain,
            range,
            log: true,
        }
    }

    /// The data domain.
    pub fn domain(&self) -> (f64, f64) {
        self.domain
    }

    /// Maps a data value into pixel space (values outside the domain
    /// extrapolate).
    pub fn map(&self, v: f64) -> f64 {
        let (d0, d1) = if self.log {
            (self.domain.0.log10(), self.domain.1.log10())
        } else {
            self.domain
        };
        let v = if self.log { v.log10() } else { v };
        let t = (v - d0) / (d1 - d0);
        self.range.0 + t * (self.range.1 - self.range.0)
    }

    /// Tick positions covering the domain: "nice" steps for linear scales,
    /// decades for log scales.
    pub fn ticks(&self, target: usize) -> Vec<f64> {
        if self.log {
            let lo = self.domain.0.log10().floor() as i32;
            let hi = self.domain.1.log10().ceil() as i32;
            let every = (((hi - lo) as usize / target.max(1)).max(1)) as i32;
            (lo..=hi)
                .step_by(every as usize)
                .map(|e| 10f64.powi(e))
                .filter(|&t| t >= self.domain.0 * 0.999 && t <= self.domain.1 * 1.001)
                .collect()
        } else {
            let step = nice_step((self.domain.1 - self.domain.0) / target.max(1) as f64);
            let start = (self.domain.0 / step).ceil() * step;
            let mut out = Vec::new();
            let mut t = start;
            while t <= self.domain.1 + step * 1e-9 {
                // Snap tiny float error to zero for clean labels.
                out.push(if t.abs() < step * 1e-9 { 0.0 } else { t });
                t += step;
            }
            out
        }
    }
}

/// Rounds `raw` up to 1, 2, or 5 times a power of ten.
pub fn nice_step(raw: f64) -> f64 {
    assert!(raw > 0.0 && raw.is_finite(), "invalid step {raw}");
    let mag = 10f64.powf(raw.log10().floor());
    let frac = raw / mag;
    let nice = if frac <= 1.0 {
        1.0
    } else if frac <= 2.0 {
        2.0
    } else if frac <= 5.0 {
        5.0
    } else {
        10.0
    };
    nice * mag
}

/// Formats a tick label compactly (scientific for tiny/huge magnitudes).
pub fn format_tick(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if !(1e-3..1e4).contains(&a) {
        format!("{v:.0e}")
    } else if a >= 100.0 || (v - v.round()).abs() < 1e-9 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_maps_endpoints() {
        let s = Scale::linear((0.0, 10.0), (100.0, 200.0));
        assert_eq!(s.map(0.0), 100.0);
        assert_eq!(s.map(10.0), 200.0);
        assert_eq!(s.map(5.0), 150.0);
        // Inverted pixel ranges (SVG y axis) work too.
        let s = Scale::linear((0.0, 1.0), (300.0, 0.0));
        assert_eq!(s.map(1.0), 0.0);
        assert_eq!(s.map(0.0), 300.0);
    }

    #[test]
    fn log_maps_decades_evenly() {
        let s = Scale::log10((1.0, 1000.0), (0.0, 300.0));
        assert!((s.map(1.0) - 0.0).abs() < 1e-9);
        assert!((s.map(10.0) - 100.0).abs() < 1e-9);
        assert!((s.map(1000.0) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn linear_ticks_are_nice_and_cover() {
        let s = Scale::linear((0.0, 97.0), (0.0, 1.0));
        let ticks = s.ticks(5);
        assert!(ticks.len() >= 4 && ticks.len() <= 8, "{ticks:?}");
        assert!(ticks.windows(2).all(|w| w[1] > w[0]));
        assert!(ticks[0] >= 0.0 && *ticks.last().unwrap() <= 97.0);
        assert!(ticks.contains(&0.0));
    }

    #[test]
    fn log_ticks_are_decades() {
        let s = Scale::log10((1e14, 1e17), (0.0, 1.0));
        let ticks = s.ticks(5);
        assert!(ticks.contains(&1e14));
        assert!(ticks.contains(&1e17));
        for t in ticks {
            let e = t.log10();
            assert!((e - e.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn nice_steps() {
        assert_eq!(nice_step(0.7), 1.0);
        assert_eq!(nice_step(1.3), 2.0);
        assert_eq!(nice_step(3.9), 5.0);
        assert_eq!(nice_step(7.2), 10.0);
        assert_eq!(nice_step(23.0), 50.0);
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(format_tick(0.0), "0");
        assert_eq!(format_tick(2.0), "2");
        assert_eq!(format_tick(2.5), "2.5");
        assert_eq!(format_tick(1e16), "1e16");
        assert_eq!(format_tick(250.0), "250");
        assert_eq!(format_tick(0.025), "0.025");
    }

    #[test]
    #[should_panic(expected = "positive domain")]
    fn log_rejects_nonpositive() {
        let _ = Scale::log10((0.0, 10.0), (0.0, 1.0));
    }
}
