//! Participants and schedules.

use crate::matroid::SenseAction;
use crate::time::InstantId;

/// Identifier of a participating mobile user (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub usize);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A mobile user participating in sensing for one application: present
/// during `[arrival, departure]` and willing to take at most `budget`
/// readings in the scheduling period (the paper's `NBk`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Participant {
    /// The user's id.
    pub user: UserId,
    /// Arrival time `tSk` (seconds, within the scheduling period).
    pub arrival: f64,
    /// Departure time `tEk` (seconds).
    pub departure: f64,
    /// Sensing budget `NBk`: max number of readings this user performs.
    pub budget: usize,
}

impl Participant {
    /// Convenience constructor.
    pub fn new(user: UserId, arrival: f64, departure: f64, budget: usize) -> Self {
        Participant { user, arrival, departure, budget }
    }

    /// Whether the user is present at time `t`.
    pub fn present_at(&self, t: f64) -> bool {
        self.arrival <= t && t <= self.departure
    }
}

/// A computed sensing schedule: the multiset of (user, instant) actions.
///
/// Per-user projections give the paper's `Φk`. Instants are unique per
/// user; the greedy solvers additionally keep them globally unique, while
/// the interval baseline may schedule several users on the same instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    actions: Vec<SenseAction>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Builds from raw actions.
    pub fn from_actions(actions: Vec<SenseAction>) -> Self {
        Schedule { actions }
    }

    /// Appends one action.
    pub fn push(&mut self, action: SenseAction) {
        self.actions.push(action);
    }

    /// All actions in insertion order.
    pub fn assignments(&self) -> &[SenseAction] {
        &self.actions
    }

    /// Number of scheduled readings.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The schedule `Φk` of one user: instant ids in ascending order.
    pub fn for_user(&self, user: UserId) -> Vec<InstantId> {
        let mut v: Vec<InstantId> =
            self.actions.iter().filter(|a| a.user == user).map(|a| InstantId(a.instant)).collect();
        v.sort();
        v
    }

    /// All scheduled instants (with multiplicity), unsorted.
    pub fn instants(&self) -> Vec<InstantId> {
        self.actions.iter().map(|a| InstantId(a.instant)).collect()
    }

    /// Number of readings assigned to `user`.
    pub fn load_of(&self, user: UserId) -> usize {
        self.actions.iter().filter(|a| a.user == user).count()
    }

    /// Iterates over the actions.
    pub fn iter(&self) -> impl Iterator<Item = &SenseAction> {
        self.actions.iter()
    }

    /// Per-user load for the given user set (zero for users with no
    /// assigned readings).
    pub fn load_distribution(&self, users: &[UserId]) -> Vec<usize> {
        users.iter().map(|&u| self.load_of(u)).collect()
    }

    /// Jain's fairness index of the per-user load over `users`:
    /// `(Σx)² / (n·Σx²)`, 1.0 = perfectly even, `1/n` = one user does
    /// everything. The budget matroid exists to keep this high — the
    /// paper: "ensure fairness by preventing certain mobile users from
    /// being abused". Returns 1.0 for an empty schedule or user set.
    pub fn fairness_index(&self, users: &[UserId]) -> f64 {
        let loads = self.load_distribution(users);
        let sum: usize = loads.iter().sum();
        if users.is_empty() || sum == 0 {
            return 1.0;
        }
        let sum_sq: usize = loads.iter().map(|&l| l * l).sum();
        (sum * sum) as f64 / (users.len() * sum_sq) as f64
    }
}

impl FromIterator<SenseAction> for Schedule {
    fn from_iter<I: IntoIterator<Item = SenseAction>>(iter: I) -> Self {
        Schedule { actions: iter.into_iter().collect() }
    }
}

impl Extend<SenseAction> for Schedule {
    fn extend<I: IntoIterator<Item = SenseAction>>(&mut self, iter: I) {
        self.actions.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Schedule {
    type Item = &'a SenseAction;
    type IntoIter = std::slice::Iter<'a, SenseAction>;
    fn into_iter(self) -> Self::IntoIter {
        self.actions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(u: usize, i: usize) -> SenseAction {
        SenseAction { user: UserId(u), instant: i }
    }

    #[test]
    fn schedule_per_user_projection_sorted() {
        let s = Schedule::from_actions(vec![act(0, 5), act(1, 2), act(0, 1)]);
        assert_eq!(s.for_user(UserId(0)), vec![InstantId(1), InstantId(5)]);
        assert_eq!(s.for_user(UserId(1)), vec![InstantId(2)]);
        assert!(s.for_user(UserId(9)).is_empty());
    }

    #[test]
    fn load_counts_per_user() {
        let s = Schedule::from_actions(vec![act(0, 5), act(0, 2), act(1, 2)]);
        assert_eq!(s.load_of(UserId(0)), 2);
        assert_eq!(s.load_of(UserId(1)), 1);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn participant_presence() {
        let p = Participant::new(UserId(0), 10.0, 20.0, 3);
        assert!(p.present_at(10.0));
        assert!(p.present_at(20.0));
        assert!(!p.present_at(9.9));
        assert!(!p.present_at(20.1));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: Schedule = vec![act(0, 1)].into_iter().collect();
        s.extend(vec![act(1, 2)]);
        assert_eq!(s.len(), 2);
        let instants: Vec<_> = s.instants();
        assert_eq!(instants, vec![InstantId(1), InstantId(2)]);
    }

    #[test]
    fn empty_schedule_reports_empty() {
        let s = Schedule::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn fairness_index_extremes() {
        let users = [UserId(0), UserId(1), UserId(2)];
        // Perfectly even: one reading each.
        let even = Schedule::from_actions(vec![act(0, 1), act(1, 2), act(2, 3)]);
        assert!((even.fairness_index(&users) - 1.0).abs() < 1e-12);
        // One user abused: index = 1/n.
        let skewed = Schedule::from_actions(vec![act(0, 1), act(0, 2), act(0, 3)]);
        assert!((skewed.fairness_index(&users) - 1.0 / 3.0).abs() < 1e-12);
        // Degenerate cases default to 1.0.
        assert_eq!(Schedule::new().fairness_index(&users), 1.0);
        assert_eq!(even.fairness_index(&[]), 1.0);
    }

    #[test]
    fn load_distribution_covers_absent_users() {
        let s = Schedule::from_actions(vec![act(0, 1), act(0, 2)]);
        assert_eq!(s.load_distribution(&[UserId(0), UserId(7)]), vec![2, 0]);
    }
}
