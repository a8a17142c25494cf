//! The paper's experiments as reusable scenario builders.

pub mod fieldtest;
pub mod profiles;
pub mod scheduling;

pub use fieldtest::{
    coffee_features, run_coffee_field_test, run_coffee_field_test_durable,
    run_coffee_field_test_durable_traced, run_coffee_field_test_traced, run_trail_field_test,
    run_trail_field_test_traced, trail_features, DurableRun, FieldTestConfig, FieldTestOutcome,
    COFFEE_SCRIPT, TRAIL_SCRIPT,
};
pub use profiles::{alice, bob, chris, david, emma};
pub use scheduling::{
    draw_participants, run_churn_sim, run_churn_sim_with, run_scheduling_sim,
    run_scheduling_sim_traced, ChurnConfig, ChurnOutcome, SchedulingConfig, SchedulingOutcome,
};
