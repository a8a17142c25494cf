//! Rankings and ranking distances (Definition 2, eq. 9–10).

use crate::ranking::feature::PlaceId;
use crate::CoreError;

/// A total order over `n` target places.
///
/// `order[pos] = place`: the place ranked at position `pos` (0 = best).
/// The paper's index function `π(i, R)` is [`Ranking::position_of`].
///
/// # Example
///
/// ```
/// use sor_core::ranking::Ranking;
/// use sor_core::ranking::PlaceId;
///
/// let r = Ranking::from_order(vec![2, 0, 1]).unwrap();
/// assert_eq!(r.position_of(PlaceId(2)), 0); // place 2 is ranked first
/// assert_eq!(r.place_at(0), PlaceId(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ranking {
    order: Vec<usize>,
    /// positions[place] = rank position of that place.
    positions: Vec<usize>,
}

impl Ranking {
    /// Builds a ranking from best-to-worst place order.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotAPermutation`] unless `order` is a permutation of
    /// `0..order.len()`.
    pub fn from_order(order: Vec<usize>) -> Result<Self, CoreError> {
        let n = order.len();
        let mut positions = vec![usize::MAX; n];
        for (pos, &place) in order.iter().enumerate() {
            if place >= n || positions[place] != usize::MAX {
                return Err(CoreError::NotAPermutation { len: n });
            }
            positions[place] = pos;
        }
        Ok(Ranking { order, positions })
    }

    /// The identity ranking `0, 1, …, n−1`.
    pub fn identity(n: usize) -> Self {
        Ranking { order: (0..n).collect(), positions: (0..n).collect() }
    }

    /// Number of ranked places.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ranking is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The index function `π(i, R)`: the 0-based position of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range.
    pub fn position_of(&self, place: PlaceId) -> usize {
        self.positions[place.0]
    }

    /// The place ranked at `pos` (0 = best).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn place_at(&self, pos: usize) -> PlaceId {
        PlaceId(self.order[pos])
    }

    /// Best-to-worst place ids.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Iterates places best-to-worst.
    pub fn iter(&self) -> impl Iterator<Item = PlaceId> + '_ {
        self.order.iter().map(|&p| PlaceId(p))
    }
}

impl std::fmt::Display for Ranking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.order.iter().map(|p| format!("p{p}")).collect();
        write!(f, "[{}]", parts.join(" > "))
    }
}

/// The Kemeny distance `d_K` (Definition 2): the number of place pairs
/// ordered oppositely by the two rankings (pairwise violations).
///
/// # Panics
///
/// Panics if the rankings have different lengths.
pub fn kemeny_distance(r1: &Ranking, r2: &Ranking) -> usize {
    assert_eq!(r1.len(), r2.len(), "rankings must rank the same places");
    let n = r1.len();
    let mut count = 0;
    for i in 0..n {
        for i2 in (i + 1)..n {
            let a = r1.positions[i] as i64 - r1.positions[i2] as i64;
            let b = r2.positions[i] as i64 - r2.positions[i2] as i64;
            if a * b < 0 {
                count += 1;
            }
        }
    }
    count
}

/// Spearman's footrule distance `d_f` (eq. 9): the total displacement of
/// places between the two rankings.
///
/// # Panics
///
/// Panics if the rankings have different lengths.
pub fn footrule_distance(r1: &Ranking, r2: &Ranking) -> usize {
    assert_eq!(r1.len(), r2.len(), "rankings must rank the same places");
    (0..r1.len()).map(|i| r1.positions[i].abs_diff(r2.positions[i])).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_kemeny_distance() {
        // R1: A,B,C and R2: B,C,A (A=0, B=1, C=2): d_K = 2 per §IV-B.
        let r1 = Ranking::from_order(vec![0, 1, 2]).unwrap();
        let r2 = Ranking::from_order(vec![1, 2, 0]).unwrap();
        assert_eq!(kemeny_distance(&r1, &r2), 2);
    }

    #[test]
    fn identical_rankings_have_zero_distance() {
        let r = Ranking::from_order(vec![3, 1, 0, 2]).unwrap();
        assert_eq!(kemeny_distance(&r, &r), 0);
        assert_eq!(footrule_distance(&r, &r), 0);
    }

    #[test]
    fn reversal_maximises_kemeny() {
        let r1 = Ranking::from_order(vec![0, 1, 2, 3]).unwrap();
        let r2 = Ranking::from_order(vec![3, 2, 1, 0]).unwrap();
        assert_eq!(kemeny_distance(&r1, &r2), 6); // C(4,2)
        assert_eq!(footrule_distance(&r1, &r2), 8);
    }

    #[test]
    fn footrule_bounds_kemeny() {
        // Diaconis–Graham (eq. 10): d_K <= d_f <= 2 d_K, checked on a few
        // fixed permutations.
        let perms = vec![
            vec![0, 1, 2, 3],
            vec![1, 0, 3, 2],
            vec![3, 0, 1, 2],
            vec![2, 3, 0, 1],
            vec![3, 2, 1, 0],
        ];
        let base = Ranking::from_order(vec![0, 1, 2, 3]).unwrap();
        for p in perms {
            let r = Ranking::from_order(p).unwrap();
            let dk = kemeny_distance(&base, &r);
            let df = footrule_distance(&base, &r);
            assert!(dk <= df, "dk={dk} df={df} for {r}");
            assert!(df <= 2 * dk, "dk={dk} df={df} for {r}");
        }
    }

    #[test]
    fn rejects_non_permutations() {
        assert!(Ranking::from_order(vec![0, 0]).is_err());
        assert!(Ranking::from_order(vec![0, 2]).is_err());
        assert!(Ranking::from_order(vec![5]).is_err());
    }

    #[test]
    fn identity_ranking() {
        let r = Ranking::identity(4);
        assert_eq!(r.order(), &[0, 1, 2, 3]);
        assert_eq!(r.position_of(PlaceId(2)), 2);
    }

    #[test]
    fn position_and_place_are_inverse() {
        let r = Ranking::from_order(vec![2, 0, 3, 1]).unwrap();
        for pos in 0..4 {
            assert_eq!(r.position_of(r.place_at(pos)), pos);
        }
    }

    #[test]
    fn display_formats_order() {
        let r = Ranking::from_order(vec![1, 0]).unwrap();
        assert_eq!(r.to_string(), "[p1 > p0]");
    }

    #[test]
    #[should_panic(expected = "same places")]
    fn distance_requires_same_length() {
        let r1 = Ranking::identity(3);
        let r2 = Ranking::identity(4);
        kemeny_distance(&r1, &r2);
    }

    #[test]
    fn distances_are_symmetric() {
        let r1 = Ranking::from_order(vec![0, 2, 1, 3]).unwrap();
        let r2 = Ranking::from_order(vec![3, 1, 2, 0]).unwrap();
        assert_eq!(kemeny_distance(&r1, &r2), kemeny_distance(&r2, &r1));
        assert_eq!(footrule_distance(&r1, &r2), footrule_distance(&r2, &r1));
    }
}
