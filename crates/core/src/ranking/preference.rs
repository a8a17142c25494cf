//! User preferences and the distance step of Algorithm 2.
//!
//! §IV-B, Step 1: "the algorithm calculates the distances between
//! numbers in `H` and the values preferred by a user and then stores
//! them into another N×M matrix `Γ = <γ_ij>`", with `γ_ij = |h_ij − u_j|`.
//!
//! "If the user does not input a desirable temperature, the system
//! provides a default value, e.g. 73°F … for some features (such as WiFi
//! signal strength), if it is always the larger (smaller) the better,
//! then a very large (small) default value is always used as the
//! preferred value."

use crate::ranking::feature::{FeatureId, FeatureMatrix, PlaceId};
use crate::CoreError;

/// A user's preferred value for one feature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreferredValue {
    /// A concrete target value, e.g. 73 °F.
    Value(f64),
    /// "The larger the better" — the paper's `MAX` sentinel. Distances
    /// are computed against the column maximum, which yields the same
    /// ordering as any sufficiently large sentinel.
    Largest,
    /// "The smaller the better" — computed against the column minimum.
    Smallest,
}

/// Emphasis weight on one feature.
///
/// The paper's UI restricts weights to integers `{0,1,2,3,4,5}` with 0
/// meaning "don't care" and 5 "really cares"; [`Weight::level`] builds
/// those, while [`Weight::new`] accepts any non-negative finite value
/// for programmatic use.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Weight(f64);

impl Weight {
    /// Any non-negative finite weight.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative, NaN or infinite.
    pub fn new(w: f64) -> Self {
        assert!(w.is_finite() && w >= 0.0, "weight must be non-negative finite, got {w}");
        Weight(w)
    }

    /// The paper's integer emphasis level, 0 ("don't care") to 5
    /// ("really cares").
    ///
    /// # Panics
    ///
    /// Panics if `level > 5`.
    pub fn level(level: u8) -> Self {
        assert!(level <= 5, "paper weights are 0..=5, got {level}");
        Weight(level as f64)
    }

    /// Raw value.
    pub fn value(&self) -> f64 {
        self.0
    }

    /// Whether the user doesn't care about this feature at all.
    pub fn is_zero(&self) -> bool {
        self.0 == 0.0
    }
}

impl Default for Weight {
    fn default() -> Self {
        Weight(1.0)
    }
}

/// Preference on one feature: target value plus emphasis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Preference {
    /// The preferred value `u_j`.
    pub preferred: PreferredValue,
    /// The weight `w_j`.
    pub weight: Weight,
}

impl Preference {
    /// Convenience constructor.
    pub fn new(preferred: PreferredValue, weight: Weight) -> Self {
        Preference { preferred, weight }
    }

    /// A concrete target with a paper-style integer weight.
    pub fn value(v: f64, level: u8) -> Self {
        Preference::new(PreferredValue::Value(v), Weight::level(level))
    }

    /// "The larger the better" with a paper-style integer weight.
    pub fn largest(level: u8) -> Self {
        Preference::new(PreferredValue::Largest, Weight::level(level))
    }

    /// "The smaller the better" with a paper-style integer weight.
    pub fn smallest(level: u8) -> Self {
        Preference::new(PreferredValue::Smallest, Weight::level(level))
    }
}

/// A user's full preference profile over the `M` features of a category,
/// e.g. the hiker profiles of Fig. 7.
#[derive(Debug, Clone, PartialEq)]
pub struct UserPreferences {
    /// Display name, e.g. "Alice".
    pub name: String,
    /// One preference per feature, in feature order.
    pub preferences: Vec<Preference>,
}

impl UserPreferences {
    /// Creates a profile.
    pub fn new(name: impl Into<String>, preferences: Vec<Preference>) -> Self {
        UserPreferences { name: name.into(), preferences }
    }

    /// Number of features this profile covers.
    pub fn len(&self) -> usize {
        self.preferences.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.preferences.is_empty()
    }

    /// Weight vector `W`.
    pub fn weights(&self) -> Vec<f64> {
        self.preferences.iter().map(|p| p.weight.value()).collect()
    }
}

/// Step 1 of Algorithm 2: the distance matrix `Γ`.
///
/// `γ_ij = |h_ij − u_j|`; `Largest`/`Smallest` preferences resolve `u_j`
/// to the column max/min (order-equivalent to the paper's huge
/// sentinels).
///
/// # Errors
///
/// [`CoreError::DimensionMismatch`] if the profile covers a different
/// number of features than the matrix.
pub fn distance_matrix(
    h: &FeatureMatrix,
    prefs: &UserPreferences,
) -> Result<Vec<Vec<f64>>, CoreError> {
    if prefs.len() != h.n_features() {
        return Err(CoreError::DimensionMismatch {
            expected: h.n_features(),
            actual: prefs.len(),
            what: "preferences",
        });
    }
    let n = h.n_places();
    let m = h.n_features();
    // Columns are independent, so they can be computed in parallel; each
    // column's arithmetic is identical to the sequential pass, and
    // `par_map_min` preserves column order, so the assembled Γ is
    // bit-for-bit the same at any `SOR_THREADS`. Below the cutoff the
    // scoped-spawn cost would dominate; stay sequential.
    let min_cols = if n.saturating_mul(m) >= PAR_DISTANCE_WORK_CUTOFF { 2 } else { usize::MAX };
    let feature_ids: Vec<usize> = (0..m).collect();
    let columns: Vec<Vec<f64>> = sor_par::par_map_min(&feature_ids, min_cols, |&j| {
        let (min, max) = h.column_range(FeatureId(j));
        let target = match prefs.preferences[j].preferred {
            PreferredValue::Value(v) => v,
            PreferredValue::Largest => max,
            PreferredValue::Smallest => min,
        };
        (0..n).map(|i| (h.value(PlaceId(i), FeatureId(j)) - target).abs()).collect()
    });
    let mut gamma = vec![vec![0.0; m]; n];
    for (j, col) in columns.iter().enumerate() {
        for (i, row) in gamma.iter_mut().enumerate() {
            row[j] = col[i];
        }
    }
    Ok(gamma)
}

/// Minimum `places × features` cell count before the per-column loop
/// fans out to the worker pool.
const PAR_DISTANCE_WORK_CUTOFF: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::feature::Feature;

    fn matrix() -> FeatureMatrix {
        FeatureMatrix::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![Feature::new("temp", "°F"), Feature::new("wifi", "dBm")],
            vec![vec![70.0, -60.0], vec![65.0, -40.0], vec![80.0, -75.0]],
        )
        .unwrap()
    }

    #[test]
    fn concrete_preference_distances() {
        let prefs =
            UserPreferences::new("u", vec![Preference::value(72.0, 3), Preference::largest(2)]);
        let gamma = distance_matrix(&matrix(), &prefs).unwrap();
        assert_eq!(gamma[0][0], 2.0);
        assert_eq!(gamma[1][0], 7.0);
        assert_eq!(gamma[2][0], 8.0);
    }

    #[test]
    fn largest_prefers_column_max() {
        let prefs =
            UserPreferences::new("u", vec![Preference::value(70.0, 1), Preference::largest(5)]);
        let gamma = distance_matrix(&matrix(), &prefs).unwrap();
        // WiFi column: max is -40 (place B): distance 0 for B.
        assert_eq!(gamma[1][1], 0.0);
        assert_eq!(gamma[0][1], 20.0);
        assert_eq!(gamma[2][1], 35.0);
    }

    #[test]
    fn smallest_prefers_column_min() {
        let prefs =
            UserPreferences::new("u", vec![Preference::smallest(1), Preference::value(-50.0, 1)]);
        let gamma = distance_matrix(&matrix(), &prefs).unwrap();
        // Temp column min is 65 (place B).
        assert_eq!(gamma[1][0], 0.0);
        assert_eq!(gamma[0][0], 5.0);
    }

    #[test]
    fn mismatched_profile_rejected() {
        let prefs = UserPreferences::new("u", vec![Preference::value(1.0, 1)]);
        assert!(matches!(
            distance_matrix(&matrix(), &prefs),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn weight_constructors() {
        assert_eq!(Weight::level(5).value(), 5.0);
        assert!(Weight::level(0).is_zero());
        assert_eq!(Weight::new(2.5).value(), 2.5);
        assert_eq!(Weight::default().value(), 1.0);
    }

    #[test]
    #[should_panic(expected = "0..=5")]
    fn weight_level_bounds() {
        Weight::level(6);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn weight_rejects_negative() {
        Weight::new(-1.0);
    }

    #[test]
    fn preferences_weights_vector() {
        let prefs =
            UserPreferences::new("u", vec![Preference::value(0.0, 3), Preference::largest(0)]);
        assert_eq!(prefs.weights(), vec![3.0, 0.0]);
        assert_eq!(prefs.len(), 2);
    }
}
