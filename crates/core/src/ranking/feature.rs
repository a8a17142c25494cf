//! Feature descriptors and the feature-data matrix `H`.
//!
//! §IV-A: "When they are needed for ranking, they are read from the
//! database into a matrix `H = <h_ij>`, `i ∈ {1..N}`, `j ∈ {1..M}`,
//! where `N` and `M` are the numbers of target places and features."

use crate::CoreError;

/// Index of a target place (row of `H`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub usize);

/// Index of a sensing feature (column of `H`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeatureId(pub usize);

/// A humanly-understandable sensing feature, e.g. "temperature (°F)" or
/// "roughness of road surface (m/s²)".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feature {
    /// Display name, e.g. "temperature".
    pub name: String,
    /// Unit string, e.g. "°F". Empty for dimensionless features.
    pub unit: String,
}

impl Feature {
    /// Creates a feature descriptor.
    pub fn new(name: impl Into<String>, unit: impl Into<String>) -> Self {
        Feature { name: name.into(), unit: unit.into() }
    }
}

impl std::fmt::Display for Feature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.unit.is_empty() {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{} ({})", self.name, self.unit)
        }
    }
}

/// The matrix `H`: one row per target place, one column per feature,
/// restricted (as in the paper) to places of one category.
///
/// # Example
///
/// ```
/// use sor_core::ranking::{Feature, FeatureMatrix};
///
/// let m = FeatureMatrix::new(
///     vec!["Green Lake Trail".into(), "Cliff Trail".into()],
///     vec![Feature::new("temperature", "°F"), Feature::new("humidity", "%")],
///     vec![vec![38.0, 55.0], vec![42.0, 40.0]],
/// ).unwrap();
/// assert_eq!(m.n_places(), 2);
/// assert_eq!(m.value(sor_core::ranking::PlaceId(1), sor_core::ranking::FeatureId(0)), 42.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    places: Vec<String>,
    features: Vec<Feature>,
    /// Row-major: `data[i][j]` = value of feature `j` at place `i`.
    data: Vec<Vec<f64>>,
}

impl FeatureMatrix {
    /// Builds a validated matrix.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] if `data` is not
    /// `places.len() × features.len()` or any value is non-finite.
    pub fn new(
        places: Vec<String>,
        features: Vec<Feature>,
        data: Vec<Vec<f64>>,
    ) -> Result<Self, CoreError> {
        if data.len() != places.len() {
            return Err(CoreError::DimensionMismatch {
                expected: places.len(),
                actual: data.len(),
                what: "rows (places)",
            });
        }
        for row in &data {
            if row.len() != features.len() {
                return Err(CoreError::DimensionMismatch {
                    expected: features.len(),
                    actual: row.len(),
                    what: "columns (features)",
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(CoreError::DimensionMismatch {
                    expected: features.len(),
                    actual: row.len(),
                    what: "finite values",
                });
            }
        }
        Ok(FeatureMatrix { places, features, data })
    }

    /// Number of target places `N`.
    pub fn n_places(&self) -> usize {
        self.places.len()
    }

    /// Number of features `M`.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Display name of a place.
    pub fn place_name(&self, i: PlaceId) -> &str {
        &self.places[i.0]
    }

    /// Descriptor of a feature.
    pub fn feature(&self, j: FeatureId) -> &Feature {
        &self.features[j.0]
    }

    /// All features.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// All place names.
    pub fn places(&self) -> &[String] {
        &self.places
    }

    /// One matrix entry `h_ij`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn value(&self, i: PlaceId, j: FeatureId) -> f64 {
        self.data[i.0][j.0]
    }

    /// One feature column.
    pub fn column(&self, j: FeatureId) -> Vec<f64> {
        self.data.iter().map(|row| row[j.0]).collect()
    }

    /// Min and max of a feature column (used for Largest/Smallest
    /// preference sentinels).
    pub fn column_range(&self, j: FeatureId) -> (f64, f64) {
        let col = self.column(j);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in col {
            min = min.min(v);
            max = max.max(v);
        }
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> FeatureMatrix {
        FeatureMatrix::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![Feature::new("temp", "°F"), Feature::new("noise", "dB")],
            vec![vec![70.0, 40.0], vec![65.0, 55.0], vec![75.0, 35.0]],
        )
        .unwrap()
    }

    #[test]
    fn dimensions_and_access() {
        let m = matrix();
        assert_eq!(m.n_places(), 3);
        assert_eq!(m.n_features(), 2);
        assert_eq!(m.value(PlaceId(1), FeatureId(1)), 55.0);
        assert_eq!(m.place_name(PlaceId(2)), "C");
        assert_eq!(m.feature(FeatureId(0)).name, "temp");
    }

    #[test]
    fn column_extraction() {
        let m = matrix();
        assert_eq!(m.column(FeatureId(0)), vec![70.0, 65.0, 75.0]);
        assert_eq!(m.column_range(FeatureId(0)), (65.0, 75.0));
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = FeatureMatrix::new(
            vec!["A".into()],
            vec![Feature::new("x", ""), Feature::new("y", "")],
            vec![vec![1.0]],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_row_count_mismatch() {
        let err = FeatureMatrix::new(
            vec!["A".into(), "B".into()],
            vec![Feature::new("x", "")],
            vec![vec![1.0]],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_nan_values() {
        let err =
            FeatureMatrix::new(vec!["A".into()], vec![Feature::new("x", "")], vec![vec![f64::NAN]])
                .unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
    }

    #[test]
    fn feature_display() {
        assert_eq!(Feature::new("temp", "°F").to_string(), "temp (°F)");
        assert_eq!(Feature::new("curvature", "").to_string(), "curvature");
    }

    #[test]
    fn empty_matrix_is_valid() {
        let m = FeatureMatrix::new(vec![], vec![], vec![]).unwrap();
        assert_eq!(m.n_places(), 0);
        assert_eq!(m.n_features(), 0);
    }
}
