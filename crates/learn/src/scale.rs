//! Min–max feature scaling.
//!
//! Distance-based estimators (DWKNN, kNN) are meaningless over raw SDSS
//! attributes whose domains differ by orders of magnitude (`rowc` spans
//! 0–2048 while `dec` spans −90–90): the widest attribute dominates every
//! distance. All models and index points in this workspace therefore
//! operate on coordinates mapped to the unit cube via the schema's domains.

use uei_types::{PointMatrix, Result, Schema, UeiError};

use crate::delta::{RangePass, TrackedRange};

/// Rows [`ScaledClassifier::rescore_range`] scales per block into its
/// reused buffer.
const SCALE_BLOCK_ROWS: usize = 256;

/// A per-dimension linear map onto `[0, 1]`.
///
/// ```
/// use uei_learn::MinMaxScaler;
/// use uei_types::Schema;
///
/// let scaler = MinMaxScaler::from_schema(&Schema::sdss());
/// let z = scaler.transform(&[1024.0, 0.0, 180.0, 0.0, 500.0]).unwrap();
/// assert_eq!(z[0], 0.5); // rowc domain is 0..2048
/// assert_eq!(z[3], 0.5); // dec domain is -90..90
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl MinMaxScaler {
    /// Builds a scaler from explicit bounds.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<MinMaxScaler> {
        if lo.len() != hi.len() {
            return Err(UeiError::DimensionMismatch { expected: lo.len(), actual: hi.len() });
        }
        if lo.is_empty() {
            return Err(UeiError::invalid_config("scaler needs at least one dimension"));
        }
        for d in 0..lo.len() {
            if !(lo[d] <= hi[d]) {
                return Err(UeiError::invalid_config(format!("scaler bounds inverted in dim {d}")));
            }
        }
        Ok(MinMaxScaler { lo, hi })
    }

    /// Builds a scaler from a schema's attribute domains.
    pub fn from_schema(schema: &Schema) -> MinMaxScaler {
        let lo = schema.attributes().iter().map(|a| a.min).collect();
        let hi = schema.attributes().iter().map(|a| a.max).collect();
        MinMaxScaler { lo, hi }
    }

    /// Fits bounds from data (useful when the schema is unknown).
    pub fn fit(points: &[Vec<f64>]) -> Result<MinMaxScaler> {
        let first = points
            .first()
            .ok_or_else(|| UeiError::invalid_config("cannot fit scaler on empty data"))?;
        let mut lo = first.clone();
        let mut hi = first.clone();
        for p in points {
            if p.len() != lo.len() {
                return Err(UeiError::DimensionMismatch { expected: lo.len(), actual: p.len() });
            }
            for d in 0..p.len() {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        MinMaxScaler::new(lo, hi)
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Maps a point into the unit cube. Constant dimensions map to 0.5.
    pub fn transform(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(x.len());
        self.transform_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Self::transform`] into a caller-provided buffer (cleared first) —
    /// the allocation-free form the batch scoring paths use.
    pub fn transform_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if x.len() != self.dims() {
            return Err(UeiError::DimensionMismatch { expected: self.dims(), actual: x.len() });
        }
        out.clear();
        out.extend((0..x.len()).map(|d| {
            let w = self.hi[d] - self.lo[d];
            if w > 0.0 {
                (x[d] - self.lo[d]) / w
            } else {
                0.5
            }
        }));
        Ok(())
    }

    /// [`Self::transform_into`] over a flat row-major block of `dims()`-wide
    /// rows, appended to `out` — the same per-coordinate arithmetic, so
    /// every value is bit-identical to the per-row form. Errors unless the
    /// block holds a whole number of rows.
    pub(crate) fn transform_block_into(&self, rows: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let dims = self.dims();
        if !rows.len().is_multiple_of(dims) {
            return Err(UeiError::DimensionMismatch { expected: dims, actual: rows.len() });
        }
        out.reserve(rows.len());
        for row in rows.chunks_exact(dims) {
            for d in 0..dims {
                let w = self.hi[d] - self.lo[d];
                out.push(if w > 0.0 { (row[d] - self.lo[d]) / w } else { 0.5 });
            }
        }
        Ok(())
    }

    /// Maps a unit-cube point back to the original space.
    pub fn inverse(&self, z: &[f64]) -> Result<Vec<f64>> {
        if z.len() != self.dims() {
            return Err(UeiError::DimensionMismatch { expected: self.dims(), actual: z.len() });
        }
        Ok((0..z.len()).map(|d| self.lo[d] + z[d] * (self.hi[d] - self.lo[d])).collect())
    }
}

/// A classifier that operates on raw coordinates by scaling them into the
/// unit cube before delegating to an inner model.
///
/// Everything in the exploration loop (query strategies, index-point
/// scoring, exhaustive scans) passes raw attribute values; the scaling is
/// an internal concern of distance-based estimators. Training data is
/// scaled once at fit time, queries on every call.
pub struct ScaledClassifier {
    inner: Box<dyn crate::model::Classifier>,
    scaler: MinMaxScaler,
}

impl ScaledClassifier {
    /// Scales `examples` and trains an inner model of `kind` on them.
    pub fn train(
        kind: crate::model::EstimatorKind,
        scaler: MinMaxScaler,
        examples: &[(Vec<f64>, uei_types::Label)],
    ) -> Result<ScaledClassifier> {
        let scaled: Result<Vec<(Vec<f64>, uei_types::Label)>> =
            examples.iter().map(|(x, l)| Ok((scaler.transform(x)?, *l))).collect();
        let inner = kind.train(&scaled?)?;
        Ok(ScaledClassifier { inner, scaler })
    }

    /// Wraps an already trained model (which must expect scaled inputs).
    pub fn wrap(inner: Box<dyn crate::model::Classifier>, scaler: MinMaxScaler) -> Self {
        ScaledClassifier { inner, scaler }
    }

    /// The scaler in use.
    pub fn scaler(&self) -> &MinMaxScaler {
        &self.scaler
    }

    /// Scales a batch into one flat row-major matrix plus a validity mask
    /// (`valid[i]` is false for rows of the wrong dimensionality, which
    /// score the 0.5 fallback). Scaling is element-wise, so filling the
    /// matrix sequentially produces bit-identical coordinates to any
    /// per-row schedule; the expensive part — inner-model scoring — still
    /// parallelizes downstream.
    fn scale_batch(&self, xs: &[&[f64]]) -> (PointMatrix, Vec<bool>) {
        let dims = self.scaler.dims();
        let mut matrix = PointMatrix::with_capacity(xs.len(), dims);
        let mut valid = Vec::with_capacity(xs.len());
        let mut buf = Vec::with_capacity(dims);
        for x in xs {
            let ok =
                self.scaler.transform_into(x, &mut buf).is_ok() && matrix.push_row(&buf).is_ok();
            valid.push(ok);
        }
        (matrix, valid)
    }
}

impl crate::model::Classifier for ScaledClassifier {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        match self.scaler.transform(x) {
            Ok(z) => self.inner.predict_proba(&z),
            Err(_) => 0.5,
        }
    }

    fn predict_proba_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        // Scale into one flat matrix, score the valid rows through the
        // inner model's batch path, and splice the 0.5 fallback back in for
        // rows of the wrong dimensionality.
        let (matrix, valid) = self.scale_batch(xs);
        let refs = matrix.row_refs();
        let mut probs = self.inner.predict_proba_batch(&refs).into_iter();
        valid
            .iter()
            .map(|&ok| if ok { probs.next().expect("one probability per valid row") } else { 0.5 })
            .collect()
    }

    fn neighbour_width(&self) -> Option<usize> {
        self.inner.neighbour_width()
    }

    fn rescore_range(
        &self,
        points: &PointMatrix,
        rows: std::ops::Range<usize>,
        pass: RangePass<'_>,
        out: TrackedRange<'_>,
    ) -> Option<usize> {
        // Radii and neighbour distances live in the inner model's scaled
        // space, so rows and added examples are scaled first. Rows go
        // through one reused block buffer and each block is forwarded as a
        // range of its own: scaling is element-wise and the range contract
        // is partition-independent, so block boundaries cannot change a
        // bit. An untransformable added example or row refuses the pass.
        let width = self.inner.neighbour_width()?;
        let n = rows.len();
        let well_formed = rows.start <= rows.end
            && rows.end <= points.len()
            && points.dims() == self.scaler.dims()
            && out.scores.len() == n
            && out.radii2.len() == n
            && out.neighbours.len() == n.checked_mul(width)?;
        if !well_formed {
            return None;
        }
        let scaled_added: Vec<Vec<f64>>;
        let added_refs: Vec<&[f64]>;
        let pass = match pass {
            RangePass::Capture => RangePass::Capture,
            RangePass::Patch { since, added, margin } => {
                scaled_added =
                    added.iter().map(|a| self.scaler.transform(a)).collect::<Result<_>>().ok()?;
                added_refs = scaled_added.iter().map(Vec::as_slice).collect();
                RangePass::Patch { since, added: &added_refs, margin }
            }
        };
        let TrackedRange { score, scores, radii2, neighbours } = out;
        let dims = self.scaler.dims();
        let raw = &points.as_flat()[rows.start * dims..rows.end * dims];
        let mut flat = Vec::with_capacity(SCALE_BLOCK_ROWS.min(n) * dims);
        let mut rescored = 0;
        for lo in (0..n).step_by(SCALE_BLOCK_ROWS) {
            let hi = (lo + SCALE_BLOCK_ROWS).min(n);
            flat.clear();
            self.scaler.transform_block_into(&raw[lo * dims..hi * dims], &mut flat).ok()?;
            let block = PointMatrix::from_flat(flat, dims).ok()?;
            let out = TrackedRange {
                score,
                scores: &mut scores[lo..hi],
                radii2: &mut radii2[lo..hi],
                neighbours: &mut neighbours[lo * width..hi * width],
            };
            rescored += self.inner.rescore_range(&block, 0..hi - lo, pass, out)?;
            flat = block.into_flat();
        }
        Some(rescored)
    }

    fn influence_position(&self, x: &[f64]) -> Option<Vec<f64>> {
        // The inner model's radii live in scaled space, so the influence
        // position is the scaled image; a raw point the scaler rejects has
        // no known position (the patch refuses it, so pruning against it
        // must be disabled).
        self.scaler.transform(x).ok().and_then(|z| self.inner.influence_position(&z))
    }

    fn training_len(&self) -> Option<usize> {
        self.inner.training_len()
    }

    fn parallel_batch_threshold(&self) -> usize {
        self.inner.parallel_batch_threshold()
    }

    fn dims(&self) -> usize {
        self.scaler.dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::test_support::RowState;
    use crate::model::{Classifier, EstimatorKind};
    use uei_types::{Label, Schema};

    #[test]
    fn transform_and_inverse_round_trip() {
        let s = MinMaxScaler::new(vec![0.0, -90.0], vec![2048.0, 90.0]).unwrap();
        let x = vec![1024.0, 45.0];
        let z = s.transform(&x).unwrap();
        assert_eq!(z, vec![0.5, 0.75]);
        let back = s.inverse(&z).unwrap();
        assert!((back[0] - x[0]).abs() < 1e-9);
        assert!((back[1] - x[1]).abs() < 1e-9);
    }

    #[test]
    fn from_schema_covers_domains() {
        let s = MinMaxScaler::from_schema(&Schema::sdss());
        assert_eq!(s.dims(), 5);
        let z = s.transform(&[0.0, 2048.0, 180.0, 0.0, 500.0]).unwrap();
        assert_eq!(z[0], 0.0);
        assert_eq!(z[1], 1.0);
        assert_eq!(z[2], 0.5);
        assert_eq!(z[3], 0.5);
        assert_eq!(z[4], 0.5);
    }

    #[test]
    fn fit_from_data() {
        let pts = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![2.0, 20.0]];
        let s = MinMaxScaler::fit(&pts).unwrap();
        assert_eq!(s.transform(&[1.0, 10.0]).unwrap(), vec![0.0, 0.0]);
        assert_eq!(s.transform(&[3.0, 30.0]).unwrap(), vec![1.0, 1.0]);
        assert!(MinMaxScaler::fit(&[]).is_err());
    }

    #[test]
    fn block_transform_matches_per_row_bits() {
        let s = MinMaxScaler::new(vec![0.0, -90.0, 3.0], vec![2048.0, 90.0, 3.0]).unwrap();
        let rows = [[1.0, 2.0, 3.0], [2047.3, -89.9, 7.0], [1e-9, 0.1, -3.0]];
        let mut block = Vec::new();
        s.transform_block_into(rows.as_flattened(), &mut block).unwrap();
        let per_row: Vec<f64> = rows.iter().flat_map(|r| s.transform(r).unwrap()).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&block), bits(&per_row));
        assert!(s.transform_block_into(&[1.0, 2.0], &mut block).is_err(), "ragged block");
    }

    #[test]
    fn constant_dimension_maps_to_half() {
        let s = MinMaxScaler::new(vec![5.0], vec![5.0]).unwrap();
        assert_eq!(s.transform(&[5.0]).unwrap(), vec![0.5]);
    }

    #[test]
    fn validations() {
        assert!(MinMaxScaler::new(vec![1.0], vec![0.0]).is_err());
        assert!(MinMaxScaler::new(vec![], vec![]).is_err());
        assert!(MinMaxScaler::new(vec![0.0], vec![1.0, 2.0]).is_err());
        let s = MinMaxScaler::new(vec![0.0], vec![1.0]).unwrap();
        assert!(s.transform(&[0.0, 0.0]).is_err());
        assert!(s.inverse(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn out_of_domain_values_extrapolate() {
        let s = MinMaxScaler::new(vec![0.0], vec![10.0]).unwrap();
        assert_eq!(s.transform(&[-5.0]).unwrap(), vec![-0.5]);
        assert_eq!(s.transform(&[20.0]).unwrap(), vec![2.0]);
    }

    #[test]
    fn influence_position_is_the_scaled_image() {
        let scaler = MinMaxScaler::new(vec![0.0, 0.0], vec![10.0, 4.0]).unwrap();
        let examples = vec![
            (vec![1.0, 1.0], Label::Negative),
            (vec![9.0, 3.0], Label::Positive),
            (vec![2.0, 3.0], Label::Negative),
            (vec![8.0, 1.0], Label::Positive),
        ];
        let model =
            ScaledClassifier::train(EstimatorKind::Knn { k: 1 }, scaler, &examples).unwrap();
        // The kNN influence radii live in scaled space, so the position is
        // the scaled image of the raw point.
        assert_eq!(model.influence_position(&[5.0, 1.0]), Some(vec![0.5, 0.25]));
        // A point the scaler rejects has no position (the patch refuses it,
        // so pruning against it must not happen).
        assert!(model.influence_position(&[5.0]).is_none());
    }

    #[test]
    fn scaled_classifier_handles_wide_domains() {
        // rowc spans 0..2048, dec −90..90: unscaled kNN would be dominated
        // by rowc; the wrapper makes both attributes count.
        let scaler = MinMaxScaler::new(vec![0.0, -90.0], vec![2048.0, 90.0]).unwrap();
        let examples = vec![
            (vec![1000.0, 80.0], Label::Positive),
            (vec![1010.0, 85.0], Label::Positive),
            (vec![1000.0, -80.0], Label::Negative),
            (vec![1010.0, -85.0], Label::Negative),
        ];
        let model =
            ScaledClassifier::train(EstimatorKind::Dwknn { k: 3 }, scaler, &examples).unwrap();
        assert_eq!(model.dims(), 2);
        assert_eq!(model.predict(&[1005.0, 82.0]), Label::Positive);
        assert_eq!(model.predict(&[1005.0, -82.0]), Label::Negative);
    }

    #[test]
    fn range_passes_forward_through_scaling_block_by_block() {
        let scaler = MinMaxScaler::new(vec![0.0, -90.0], vec![2048.0, 90.0]).unwrap();
        // Examples spread over the whole domain, so influence balls are
        // local.
        let mut examples: Vec<(Vec<f64>, Label)> = (0..40)
            .map(|i| {
                let x = vec![i as f64 * 50.0, ((i * 37) % 180) as f64 - 90.0];
                (x, Label::from_bool(i % 2 == 0))
            })
            .collect();
        let train = |ex: &[(Vec<f64>, Label)]| {
            ScaledClassifier::train(EstimatorKind::Dwknn { k: 3 }, scaler.clone(), ex).unwrap()
        };
        let a = train(&examples);
        // More rows than one scaling block, so the forwarding crosses
        // block boundaries.
        let rows: Vec<Vec<f64>> =
            (0..2 * SCALE_BLOCK_ROWS + 7).map(|i| vec![i as f64 * 3.0, (i % 90) as f64]).collect();
        let grid = PointMatrix::from_rows(&rows).unwrap();
        let mut patched = RowState::new(grid.len(), 3);
        assert_eq!(patched.run(&a, &grid, RangePass::Capture), Some(grid.len()));
        let plain = a.predict_proba_batch(&grid.row_refs());
        for (x, y) in plain.iter().zip(&patched.scores) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // A raw-space added example is tested in scaled space, and the
        // patch reproduces a fresh capture of the extended model.
        let new_point = vec![1005.0, 83.0];
        examples.push((new_point.clone(), Label::Positive));
        let b = train(&examples);
        let added: Vec<&[f64]> = vec![&new_point];
        let pass = RangePass::Patch { since: 40, added: &added, margin: 0.0 };
        let rescored = patched.run(&b, &grid, pass).unwrap();
        assert!(rescored > 0 && rescored < grid.len(), "rescored {rescored}");
        let mut fresh = RowState::new(grid.len(), 3);
        fresh.run(&b, &grid, RangePass::Capture).unwrap();
        assert!(patched.bit_eq(&fresh));

        // An added example the scaler cannot transform refuses the pass,
        // as do rows of the wrong dimensionality.
        let ragged = [1005.0];
        let ragged_added: Vec<&[f64]> = vec![&ragged];
        let pass = RangePass::Patch { since: 41, added: &ragged_added, margin: 0.0 };
        assert_eq!(patched.run(&b, &grid, pass), None);
        let flat = PointMatrix::from_rows(&[vec![1.0]]).unwrap();
        assert_eq!(RowState::new(1, 3).run(&b, &flat, RangePass::Capture), None);
    }

    #[test]
    fn scaled_classifier_wrong_dims_is_uncertain() {
        let scaler = MinMaxScaler::new(vec![0.0], vec![1.0]).unwrap();
        let examples = vec![(vec![0.1], Label::Negative), (vec![0.9], Label::Positive)];
        let model =
            ScaledClassifier::train(EstimatorKind::Dwknn { k: 1 }, scaler, &examples).unwrap();
        assert_eq!(model.predict_proba(&[0.5, 0.5]), 0.5);
    }
}
