use serde::{Deserialize, Serialize};
use std::fmt;

/// A convolutional or fully connected DNN layer, in the 8-column format of
/// Table IV of the paper:
///
/// `(weight width R, weight height S, output width P, output height Q,
///   input channels C, output channels K, stride width, stride height)`
///
/// Fully connected layers are expressed as 1×1 convolutions over a 1×1
/// output, which is exactly how Timeloop and CoSA treat them.
///
/// # Examples
///
/// ```
/// use vaesa_accel::LayerShape;
///
/// // ResNet-50's first layer: 7x7 conv, 3 -> 64 channels, stride 2.
/// let l = LayerShape::new("conv1", 7, 7, 112, 112, 3, 64, 2, 2);
/// assert_eq!(l.macs(), 7 * 7 * 112 * 112 * 3 * 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerShape {
    name: String,
    /// Weight (filter) width R.
    pub r: u64,
    /// Weight (filter) height S.
    pub s: u64,
    /// Output width P.
    pub p: u64,
    /// Output height Q.
    pub q: u64,
    /// Input channels C.
    pub c: u64,
    /// Output channels K.
    pub k: u64,
    /// Stride along the width.
    pub stride_w: u64,
    /// Stride along the height.
    pub stride_h: u64,
}

impl LayerShape {
    /// Creates a layer from Table-IV-style dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        r: u64,
        s: u64,
        p: u64,
        q: u64,
        c: u64,
        k: u64,
        stride_w: u64,
        stride_h: u64,
    ) -> Self {
        let layer = LayerShape {
            name: name.into(),
            r,
            s,
            p,
            q,
            c,
            k,
            stride_w,
            stride_h,
        };
        assert!(
            [r, s, p, q, c, k, stride_w, stride_h]
                .iter()
                .all(|&d| d > 0),
            "all layer dimensions must be positive: {layer:?}"
        );
        layer
    }

    /// Creates a fully connected layer `in_features -> out_features`
    /// (a 1×1 convolution over a 1×1 output).
    pub fn fully_connected(name: impl Into<String>, in_features: u64, out_features: u64) -> Self {
        LayerShape::new(name, 1, 1, 1, 1, in_features, out_features, 1, 1)
    }

    /// The layer's name (unique within a workload).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total multiply-accumulate operations for batch size 1.
    pub fn macs(&self) -> u64 {
        self.r * self.s * self.p * self.q * self.c * self.k
    }

    /// Input activation width W = (P-1)·stride_w + R.
    pub fn input_width(&self) -> u64 {
        (self.p - 1) * self.stride_w + self.r
    }

    /// Input activation height H = (Q-1)·stride_h + S.
    pub fn input_height(&self) -> u64 {
        (self.q - 1) * self.stride_h + self.s
    }

    /// Number of weight elements (R·S·C·K).
    pub fn weight_elems(&self) -> u64 {
        self.r * self.s * self.c * self.k
    }

    /// Number of input activation elements (W·H·C).
    pub fn input_elems(&self) -> u64 {
        self.input_width() * self.input_height() * self.c
    }

    /// Number of output activation elements (P·Q·K).
    pub fn output_elems(&self) -> u64 {
        self.p * self.q * self.k
    }

    /// The 8-feature vector used as the DNN-layer conditioning input of the
    /// performance predictors, in Table-IV column order.
    pub fn features(&self) -> [f64; 8] {
        [
            self.r as f64,
            self.s as f64,
            self.p as f64,
            self.q as f64,
            self.c as f64,
            self.k as f64,
            self.stride_w as f64,
            self.stride_h as f64,
        ]
    }

    /// Natural logs of [`LayerShape::features`] (all dimensions are ≥ 1, so
    /// this is well defined); the representation used for training after
    /// min-max scaling.
    pub fn log_features(&self) -> [f64; 8] {
        self.features().map(f64::ln)
    }
}

impl fmt::Display for LayerShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}x{} conv, {}x{} out, {}->{} ch, stride {}x{}",
            self.name, self.r, self.s, self.p, self.q, self.c, self.k, self.stride_w, self.stride_h
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_layer_geometry() {
        let l = LayerShape::new("l", 3, 3, 14, 14, 512, 512, 1, 1);
        assert_eq!(l.macs(), 3 * 3 * 14 * 14 * 512 * 512);
        assert_eq!(l.input_width(), 16);
        assert_eq!(l.input_height(), 16);
        assert_eq!(l.weight_elems(), 3 * 3 * 512 * 512);
        assert_eq!(l.input_elems(), 16 * 16 * 512);
        assert_eq!(l.output_elems(), 14 * 14 * 512);
    }

    #[test]
    fn strided_layer_input_size() {
        let l = LayerShape::new("ocr", 5, 5, 700, 161, 1, 64, 2, 2);
        assert_eq!(l.input_width(), (700 - 1) * 2 + 5);
        assert_eq!(l.input_height(), (161 - 1) * 2 + 5);
    }

    #[test]
    fn fully_connected_constructor() {
        let l = LayerShape::fully_connected("fc", 2208, 1000);
        assert_eq!(l.macs(), 2208 * 1000);
        assert_eq!(l.input_elems(), 2208);
        assert_eq!(l.output_elems(), 1000);
    }

    #[test]
    fn features_match_table_iv_order() {
        let l = LayerShape::new("t", 3, 3, 28, 28, 192, 48, 1, 1);
        assert_eq!(l.features(), [3.0, 3.0, 28.0, 28.0, 192.0, 48.0, 1.0, 1.0]);
        let logs = l.log_features();
        assert!((logs[4] - (192f64).ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = LayerShape::new("bad", 0, 1, 1, 1, 1, 1, 1, 1);
    }
}
