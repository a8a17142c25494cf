//! Personalizable ranking (§IV of the paper).
//!
//! The pipeline of Algorithm 2:
//!
//! 1. **Distance step** — feature data `H = <h_ij>` (N places × M
//!    features) and a user's preferred values `U = <u_j>` produce the
//!    distance matrix `Γ = <γ_ij>` with `γ_ij = |h_ij − u_j|`
//!    ([`distance_matrix`]).
//! 2. **Individual rankings** — each feature column of `Γ` is sorted
//!    ascending to give a per-feature ranking `R_j` ([`individual_rankings`]).
//! 3. **Aggregation** — the final ranking minimises the *weighted
//!    f-ranking distance* `κ_f(R, Ω) = Σ_j w_j · d_f(R, R_j)` (eq. 11),
//!    solved exactly as a min-cost perfect matching ([`aggregate`]) with
//!    equal-cost ties broken canonically;
//!    by eq. 10 the result 2-approximates the NP-hard weighted
//!    Kemeny-optimal ranking. Exact Kemeny (bitmask DP) and Borda
//!    baselines are provided for evaluation.

mod aggregate;
mod assignment;
mod distance;
mod feature;
mod individual;
mod preference;
mod ranker;

pub use aggregate::{aggregate, weighted_footrule, weighted_kemeny, AggregationMethod};
pub use distance::{footrule_distance, kemeny_distance, Ranking};
pub use feature::{Feature, FeatureId, FeatureMatrix, PlaceId};
pub use individual::individual_rankings;
pub use preference::{distance_matrix, Preference, PreferredValue, UserPreferences, Weight};
pub use ranker::{FeatureContribution, PersonalizableRanker, PlaceExplanation, RankingOutcome};
