//! The Personalizable Ranker service: assembles the feature matrix `H`
//! for one category from the features table and runs Algorithm 2.

use sor_core::ranking::{Feature, FeatureMatrix, PersonalizableRanker, RankingOutcome};
use sor_core::UserPreferences;
use sor_store::{Database, Predicate, Value};

use crate::application::ApplicationManager;
use crate::processor::FEATURES_TABLE;
use crate::ServerError;

/// A ranked category result: outcome plus the place names in final
/// order.
#[derive(Debug, Clone)]
pub struct CategoryRanking {
    /// The assembled matrix (for inspection / visualisation).
    pub matrix: FeatureMatrix,
    /// The full Algorithm-2 outcome.
    pub outcome: RankingOutcome,
    /// Place names, best first.
    pub order: Vec<String>,
    /// The app ids in final-ranking order.
    pub app_order: Vec<u64>,
}

/// Builds `H` for every application of `category` (feature columns
/// follow the first application's feature list, which the paper's
/// single-category assumption makes uniform).
///
/// # Errors
///
/// - [`ServerError::UnknownApplication`] if the category is empty.
/// - [`ServerError::InsufficientData`] if any app lacks a feature value.
/// - Core errors from matrix construction.
pub fn assemble_matrix(
    db: &Database,
    apps: &ApplicationManager,
    category: &str,
) -> Result<(FeatureMatrix, Vec<u64>), ServerError> {
    let members = apps.by_category(category);
    let Some(first) = members.first() else {
        return Err(ServerError::UnknownApplication(0));
    };
    let features: Vec<Feature> =
        first.features.iter().map(|f| Feature::new(f.name.clone(), f.unit.clone())).collect();
    let mut rows = Vec::with_capacity(members.len());
    let mut names = Vec::with_capacity(members.len());
    let mut ids = Vec::with_capacity(members.len());
    for app in &members {
        // One indexed read per app; the first stored value of each
        // feature wins, as in `DataProcessor::feature_value`.
        let mut found: Vec<Option<f64>> = vec![None; first.features.len()];
        let by_app = Predicate::eq("app_id", Value::Int(app.app_id as i64));
        db.scan_each(FEATURES_TABLE, &by_app, |_, stored| {
            let (Some(name), Some(v)) = (stored[1].as_text(), stored[2].as_float()) else { return };
            if let Some(k) = first.features.iter().position(|f| f.name == name) {
                found[k].get_or_insert(v);
            }
        })?;
        let row = first
            .features
            .iter()
            .zip(found)
            .map(|(f, v)| {
                v.ok_or_else(|| ServerError::InsufficientData {
                    feature: f.name.clone(),
                    detail: format!("no value computed yet for app {}", app.app_id),
                })
            })
            .collect::<Result<Vec<f64>, _>>()?;
        rows.push(row);
        names.push(app.name.clone());
        ids.push(app.app_id);
    }
    let matrix = FeatureMatrix::new(names, features, rows)?;
    Ok((matrix, ids))
}

/// Runs the personalizable ranking for one user over one category.
///
/// # Errors
///
/// Assembly errors (above) plus ranking errors from `sor-core`.
pub fn rank_category(
    db: &Database,
    apps: &ApplicationManager,
    category: &str,
    prefs: &UserPreferences,
) -> Result<CategoryRanking, ServerError> {
    let (matrix, ids) = assemble_matrix(db, apps, category)?;
    let outcome = PersonalizableRanker::new().rank(&matrix, prefs)?;
    let order: Vec<String> = outcome.named_order(&matrix).iter().map(|s| s.to_string()).collect();
    let app_order: Vec<u64> = outcome.final_ranking.iter().map(|p| ids[p.0]).collect();
    Ok(CategoryRanking { matrix, outcome, order, app_order })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::ApplicationSpec;
    use crate::feature::{Extractor, FeatureSpec};
    use crate::processor::DataProcessor;
    use sor_core::ranking::Preference;
    use sor_proto::{Message, SensedRecord};

    fn setup() -> (Database, ApplicationManager) {
        let mut db = Database::new();
        DataProcessor::install(&mut db).unwrap();
        let mut apps = ApplicationManager::new();
        for (id, name, temp) in [(1u64, "cold shop", 64.0), (2, "warm shop", 74.0)] {
            apps.register(ApplicationSpec {
                app_id: id,
                name: name.into(),
                creator: "o".into(),
                category: "coffee-shop".into(),
                latitude: 43.0,
                longitude: -76.0,
                radius_m: 150.0,
                script: String::new(),
                period_seconds: 10800.0,
                instants: 1080,
                features: vec![FeatureSpec::new(
                    "temperature",
                    "°F",
                    Extractor::Mean { sensor: 7 },
                    60.0,
                )],
            });
            let frame = Message::SensedDataUpload {
                task_id: id,
                records: vec![SensedRecord {
                    timestamp: 0.0,
                    window: 3.0,
                    sensor: 7,
                    values: vec![temp],
                }],
            }
            .encode();
            DataProcessor.enqueue_raw(&mut db, id, 0.0, &frame).unwrap();
        }
        DataProcessor.process_inbox(&mut db).unwrap();
        for id in [1u64, 2] {
            let specs = apps.get(id).unwrap().features.clone();
            DataProcessor.compute_features(&mut db, id, &specs).unwrap();
        }
        (db, apps)
    }

    #[test]
    fn ranking_respects_preferences() {
        let (db, apps) = setup();
        let warm_lover = UserPreferences::new("w", vec![Preference::value(75.0, 5)]);
        let r = rank_category(&db, &apps, "coffee-shop", &warm_lover).unwrap();
        assert_eq!(r.order, vec!["warm shop", "cold shop"]);
        assert_eq!(r.app_order, vec![2, 1]);

        let cold_lover = UserPreferences::new("c", vec![Preference::value(60.0, 5)]);
        let r = rank_category(&db, &apps, "coffee-shop", &cold_lover).unwrap();
        assert_eq!(r.order, vec!["cold shop", "warm shop"]);
    }

    #[test]
    fn empty_category_is_error() {
        let (db, apps) = setup();
        let prefs = UserPreferences::new("x", vec![]);
        assert!(rank_category(&db, &apps, "museum", &prefs).is_err());
    }

    #[test]
    fn missing_feature_value_is_error() {
        let (mut db, apps) = setup();
        // Blow away the features table contents.
        db.delete_where(FEATURES_TABLE, &Predicate::True).unwrap();
        let prefs = UserPreferences::new("x", vec![Preference::value(70.0, 3)]);
        assert!(matches!(
            rank_category(&db, &apps, "coffee-shop", &prefs),
            Err(ServerError::InsufficientData { .. })
        ));
    }
}
