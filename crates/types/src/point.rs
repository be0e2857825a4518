//! Data objects: row identifiers and d-dimensional numeric points.

use serde::{Deserialize, Serialize};

use crate::error::{Result, UeiError};

/// Stable identifier of a tuple in the exploration dataset.
///
/// Row ids are dense (`0..n`) in every storage engine in this workspace,
/// which lets the inverted index delta-encode posting lists and lets the
/// baseline row store compute page locations directly.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RowId(pub u64);

impl RowId {
    /// The raw numeric id.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The raw id as an index into dense in-memory arrays.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<u64> for RowId {
    fn from(v: u64) -> Self {
        RowId(v)
    }
}

impl std::fmt::Display for RowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A d-dimensional numeric tuple with its row identifier.
///
/// This is the unit the exploration loop operates on: the user labels
/// `DataPoint`s, the classifier scores them, and UEI loads them region by
/// region from secondary storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataPoint {
    /// Stable row identifier.
    pub id: RowId,
    /// Attribute values, in schema order.
    pub values: Vec<f64>,
}

impl DataPoint {
    /// Creates a point from an id and its attribute values.
    pub fn new(id: impl Into<RowId>, values: Vec<f64>) -> Self {
        DataPoint { id: id.into(), values }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// Squared Euclidean distance to another point.
    ///
    /// Returns an error if the dimensionalities differ; distances across
    /// mismatched spaces are always a caller bug.
    pub fn squared_distance(&self, other: &DataPoint) -> Result<f64> {
        squared_distance(&self.values, &other.values)
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &DataPoint) -> Result<f64> {
        Ok(self.squared_distance(other)?.sqrt())
    }
}

/// Squared Euclidean distance between two coordinate slices.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(UeiError::DimensionMismatch { expected: a.len(), actual: b.len() });
    }
    Ok(squared_distance_unchecked(a, b))
}

/// [`squared_distance`] without the length check — the innermost kernel
/// shared by the scalar and blocked paths. Both inputs must have the same
/// length; accumulation runs in ascending dimension order, so every caller
/// (scalar query, kd-tree leaf scan, influence-ball check) produces
/// bit-identical sums for the same operand values.
#[inline]
fn squared_distance_unchecked(a: &[f64], b: &[f64]) -> f64 {
    // Manual loop rather than iterator zip/fold: this is the innermost hot
    // path of every kNN query and the optimizer vectorizes it reliably.
    let mut acc = 0.0;
    for i in 0..a.len().min(b.len()) {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// Squared Euclidean distances from `query` to every row of a flat
/// row-major block, appended to `out` (one value per row, in row order).
///
/// `rows` holds `rows.len() / dims` points of `dims` coordinates each —
/// the layout of [`PointMatrix`] and of kd-tree leaf buckets. The
/// dimension check happens once per call, not once per point, and the
/// inner loop is the same ascending-dimension accumulation as
/// [`squared_distance`], so each produced value is bit-identical to the
/// scalar call on the corresponding row.
///
/// Errors if `query.len() != dims` or `rows.len()` is not a multiple of
/// `dims`; `dims` must be nonzero unless `rows` is empty.
pub fn squared_distances_block(
    query: &[f64],
    rows: &[f64],
    dims: usize,
    out: &mut Vec<f64>,
) -> Result<()> {
    if query.len() != dims {
        return Err(UeiError::DimensionMismatch { expected: dims, actual: query.len() });
    }
    if rows.is_empty() {
        return Ok(());
    }
    if dims == 0 || !rows.len().is_multiple_of(dims) {
        return Err(UeiError::DimensionMismatch { expected: dims, actual: rows.len() });
    }
    out.reserve(rows.len() / dims);
    // Specialized low-dimension loops keep the trip count visible to the
    // vectorizer; the generic fall-through handles everything else.
    match dims {
        1 => {
            let q = query[0];
            for r in rows {
                let d = r - q;
                out.push(d * d);
            }
        }
        2 => {
            let (q0, q1) = (query[0], query[1]);
            for r in rows.chunks_exact(2) {
                let d0 = r[0] - q0;
                let d1 = r[1] - q1;
                out.push(d0 * d0 + d1 * d1);
            }
        }
        _ => {
            for r in rows.chunks_exact(dims) {
                out.push(squared_distance_unchecked(r, query));
            }
        }
    }
    Ok(())
}

/// A dense set of equal-dimensionality points in one contiguous row-major
/// allocation.
///
/// This is the storage layout of every kNN hot path in the workspace: the
/// kd-tree's point arena, the training points of the nearest-neighbour
/// classifiers, and the symbolic index-point centers. One flat `Vec<f64>`
/// replaces a `Vec<Vec<f64>>` — no per-point heap allocation, no pointer
/// chase per distance computation, and a whole block of rows can be swept
/// linearly by [`squared_distances_block`].
///
/// ```
/// use uei_types::point::PointMatrix;
///
/// let m = PointMatrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0]]).unwrap();
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.dims(), 2);
/// assert_eq!(m.row(1), &[2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PointMatrix {
    data: Vec<f64>,
    dims: usize,
}

impl PointMatrix {
    /// An empty matrix expecting `dims`-dimensional rows.
    pub fn new(dims: usize) -> PointMatrix {
        PointMatrix { data: Vec::new(), dims }
    }

    /// An empty matrix with room for `rows` rows preallocated.
    pub fn with_capacity(rows: usize, dims: usize) -> PointMatrix {
        PointMatrix { data: Vec::with_capacity(rows.saturating_mul(dims)), dims }
    }

    /// Builds a matrix from row slices, validating that every row has the
    /// first row's dimensionality. An empty input yields an empty matrix
    /// with `dims() == 0`.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<PointMatrix> {
        let dims = rows.first().map_or(0, |r| r.as_ref().len());
        if dims == 0 && !rows.is_empty() {
            return Err(UeiError::invalid_config("points need at least 1 dimension"));
        }
        let mut m = PointMatrix::with_capacity(rows.len(), dims);
        for row in rows {
            m.push_row(row.as_ref())?;
        }
        Ok(m)
    }

    /// Wraps an existing flat row-major buffer. Errors if the buffer does
    /// not hold a whole number of `dims`-dimensional rows.
    pub fn from_flat(data: Vec<f64>, dims: usize) -> Result<PointMatrix> {
        if data.is_empty() {
            return Ok(PointMatrix { data, dims });
        }
        if dims == 0 || !data.len().is_multiple_of(dims) {
            return Err(UeiError::DimensionMismatch { expected: dims, actual: data.len() });
        }
        Ok(PointMatrix { data, dims })
    }

    /// Appends one row; errors if its dimensionality differs.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if row.len() != self.dims {
            return Err(UeiError::DimensionMismatch { expected: self.dims, actual: row.len() });
        }
        self.data.extend_from_slice(row);
        Ok(())
    }

    /// Unwraps the flat row-major buffer (the inverse of
    /// [`Self::from_flat`]), so a scratch block's allocation can be reused.
    pub fn into_flat(self) -> Vec<f64> {
        self.data
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dims).unwrap_or(0)
    }

    /// Whether the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The `i`-th row. Panics if out of bounds (like slice indexing).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// The whole matrix as one flat row-major slice.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Iterator over rows, in order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        // `chunks_exact(0)` panics, so route the empty case through an
        // empty chunk iterator of width 1.
        self.data.chunks_exact(self.dims.max(1))
    }

    /// One `&[f64]` per row — the borrowed form the batch-scoring API
    /// (`predict_proba_batch`) takes.
    pub fn row_refs(&self) -> Vec<&[f64]> {
        self.rows().collect()
    }

    /// Whether any coordinate is NaN.
    pub fn has_nan(&self) -> bool {
        self.data.iter().any(|v| v.is_nan())
    }
}

/// Euclidean distance between two coordinate slices.
#[inline]
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> Result<f64> {
    Ok(squared_distance(a, b)?.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_id_conversions() {
        let id = RowId::from(42u64);
        assert_eq!(id.as_u64(), 42);
        assert_eq!(id.as_usize(), 42);
        assert_eq!(id.to_string(), "#42");
    }

    #[test]
    fn point_dims_and_distance() {
        let a = DataPoint::new(0u64, vec![0.0, 0.0, 0.0]);
        let b = DataPoint::new(1u64, vec![1.0, 2.0, 2.0]);
        assert_eq!(a.dims(), 3);
        assert_eq!(a.squared_distance(&b).unwrap(), 9.0);
        assert_eq!(a.distance(&b).unwrap(), 3.0);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = DataPoint::new(0u64, vec![1.5, -2.5]);
        let b = DataPoint::new(1u64, vec![-0.5, 4.0]);
        assert_eq!(a.distance(&b).unwrap(), b.distance(&a).unwrap());
        assert_eq!(a.distance(&a).unwrap(), 0.0);
    }

    #[test]
    fn mismatched_dims_error() {
        let a = DataPoint::new(0u64, vec![1.0]);
        let b = DataPoint::new(1u64, vec![1.0, 2.0]);
        match a.squared_distance(&b) {
            Err(UeiError::DimensionMismatch { expected: 1, actual: 2 }) => {}
            other => panic!("expected dimension mismatch, got {other:?}"),
        }
    }

    #[test]
    fn slice_distance_matches_point_distance() {
        let a = vec![3.0, 4.0];
        let b = vec![0.0, 0.0];
        assert_eq!(euclidean_distance(&a, &b).unwrap(), 5.0);
    }

    #[test]
    fn matrix_round_trips_rows() {
        let rows = vec![vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0, 5.0]];
        let m = PointMatrix::from_rows(&rows).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.dims(), 2);
        assert!(!m.is_empty());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(m.row(i), r.as_slice());
        }
        let back: Vec<&[f64]> = m.rows().collect();
        assert_eq!(back, m.row_refs());
        assert_eq!(m.as_flat(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(!m.has_nan());
    }

    #[test]
    fn matrix_validates_shapes() {
        assert!(PointMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(PointMatrix::from_rows(&[vec![], vec![]]).is_err());
        let empty = PointMatrix::from_rows(&Vec::<Vec<f64>>::new()).unwrap();
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.row_refs(), Vec::<&[f64]>::new());
        let mut m = PointMatrix::new(2);
        assert!(m.push_row(&[1.0]).is_err());
        m.push_row(&[1.0, 2.0]).unwrap();
        assert_eq!(m.len(), 1);
        assert!(PointMatrix::from_flat(vec![1.0, 2.0, 3.0], 2).is_err());
        assert!(PointMatrix::from_flat(vec![1.0, 2.0], 0).is_err());
        assert_eq!(PointMatrix::from_flat(vec![1.0, 2.0], 2).unwrap().len(), 1);
        assert!(PointMatrix::from_rows(&[vec![f64::NAN]]).unwrap().has_nan());
    }

    #[test]
    fn blocked_distances_match_scalar_bitwise() {
        for dims in 1..=8usize {
            let n = 17;
            let rows: Vec<f64> =
                (0..n * dims).map(|i| (i as f64 * 0.37).sin() * 50.0 - 10.0).collect();
            let query: Vec<f64> = (0..dims).map(|d| (d as f64 * 1.3).cos() * 20.0).collect();
            let mut out = Vec::new();
            squared_distances_block(&query, &rows, dims, &mut out).unwrap();
            assert_eq!(out.len(), n);
            for (i, got) in out.iter().enumerate() {
                let row = &rows[i * dims..(i + 1) * dims];
                let want = squared_distance(row, &query).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "dims={dims} row={i}");
            }
        }
    }

    #[test]
    fn blocked_distances_append_and_validate() {
        let mut out = vec![9.0];
        squared_distances_block(&[0.0], &[3.0, 4.0], 1, &mut out).unwrap();
        assert_eq!(out, vec![9.0, 9.0, 16.0]);
        // Empty block: no-op for any dims, even a mismatched one.
        squared_distances_block(&[0.0], &[], 1, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        // Query of the wrong dimensionality.
        assert!(squared_distances_block(&[0.0, 0.0], &[1.0], 1, &mut Vec::new()).is_err());
        // Ragged block.
        assert!(squared_distances_block(&[0.0, 0.0], &[1.0, 2.0, 3.0], 2, &mut Vec::new()).is_err());
    }
}
