//! Table schemas: a set of dimension hierarchies plus one measure column.

use crate::dimension::Dimension;

/// Identifier of a dimension within a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DimId(pub u8);

impl DimId {
    /// Index into the schema's dimension list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How measure values should be verbalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureUnit {
    /// Values in `[0,1]` spoken as percentages (e.g. cancellation probability).
    Fraction,
    /// Dollar amounts spoken in thousands (e.g. `"90 K"`).
    DollarsK,
    /// Plain numbers.
    Plain,
}

/// Identifier of a measure column within a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MeasureId(pub u8);

impl MeasureId {
    /// The primary (first) measure of a schema.
    pub const PRIMARY: MeasureId = MeasureId(0);

    /// Index into the schema's measure list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One measure column: a spoken name plus a verbalization unit.
#[derive(Debug, Clone)]
pub struct Measure {
    /// Spoken name (e.g. `"cancellation probability"`).
    pub name: String,
    /// Unit hint for verbalization.
    pub unit: MeasureUnit,
}

/// Schema of a fact table: dimensions + one or more measure columns.
///
/// The paper supports one aggregation column per query (§2) and notes the
/// approach "could be easily extended to support multiple functions and
/// columns" — a schema may therefore carry several measures; each query
/// aggregates exactly one of them ([`MeasureId`]). Star schemata are
/// represented the same way — the generators join dimension tables into
/// leaf member ids at load time, which matches the paper's assumption of
/// "joining fact table entries with indexed dimension tables" producing
/// rows at high frequency.
#[derive(Debug, Clone)]
pub struct Schema {
    name: String,
    dimensions: Vec<Dimension>,
    measures: Vec<Measure>,
}

impl Schema {
    /// Create a single-measure schema (the common case).
    pub fn new(
        name: &str,
        dimensions: Vec<Dimension>,
        measure_name: &str,
        measure_unit: MeasureUnit,
    ) -> Self {
        Self::with_measures(
            name,
            dimensions,
            vec![Measure { name: measure_name.to_string(), unit: measure_unit }],
        )
    }

    /// Create a schema with multiple measure columns.
    ///
    /// # Panics
    /// Panics when `measures` is empty — every fact table aggregates
    /// something.
    pub fn with_measures(name: &str, dimensions: Vec<Dimension>, measures: Vec<Measure>) -> Self {
        assert!(!measures.is_empty(), "a schema needs at least one measure");
        Schema { name: name.to_string(), dimensions, measures }
    }

    /// Dataset name (e.g. `"flight cancellations"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All dimensions, indexable by [`DimId`].
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dimensions
    }

    /// Access one dimension.
    pub fn dimension(&self, id: DimId) -> &Dimension {
        &self.dimensions[id.index()]
    }

    /// Iterate `(DimId, &Dimension)` pairs.
    pub fn dims(&self) -> impl Iterator<Item = (DimId, &Dimension)> {
        self.dimensions.iter().enumerate().map(|(i, d)| (DimId(i as u8), d))
    }

    /// Spoken name of the primary measure column.
    pub fn measure_name(&self) -> &str {
        &self.measures[0].name
    }

    /// Unit hint for verbalizing primary-measure values.
    pub fn measure_unit(&self) -> MeasureUnit {
        self.measures[0].unit
    }

    /// Number of measure columns.
    pub fn measure_count(&self) -> usize {
        self.measures.len()
    }

    /// All measures, indexable by [`MeasureId`].
    pub fn measures(&self) -> &[Measure] {
        &self.measures
    }

    /// One measure column.
    pub fn measure(&self, id: MeasureId) -> &Measure {
        &self.measures[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionBuilder;

    fn schema() -> Schema {
        let mut b = DimensionBuilder::new("college location", "graduates from", "any college");
        let l = b.add_level("region");
        b.add_member(l, b.root(), "the North East");
        let college = b.build();

        let mut b = DimensionBuilder::new("start salary", "a start salary of", "any amount");
        let l = b.add_level("rough start salary");
        b.add_member(l, b.root(), "at least 50 K");
        let salary = b.build();

        Schema::new("salaries", vec![college, salary], "mid-career salary", MeasureUnit::DollarsK)
    }

    #[test]
    fn dims_iterator_yields_all() {
        let s = schema();
        let names: Vec<_> = s.dims().map(|(_, d)| d.name().to_string()).collect();
        assert_eq!(names, vec!["college location", "start salary"]);
    }

    #[test]
    fn measure_metadata() {
        let s = schema();
        assert_eq!(s.measure_name(), "mid-career salary");
        assert_eq!(s.measure_unit(), MeasureUnit::DollarsK);
        assert_eq!(s.measure_count(), 1);
    }

    #[test]
    fn multi_measure_schema_lookup() {
        let mut b = DimensionBuilder::new("d", "in", "anywhere");
        let l = b.add_level("level");
        b.add_member(l, b.root(), "m");
        let schema = Schema::with_measures(
            "multi",
            vec![b.build()],
            vec![
                Measure { name: "first".into(), unit: MeasureUnit::Fraction },
                Measure { name: "second".into(), unit: MeasureUnit::Plain },
            ],
        );
        assert_eq!(schema.measure_count(), 2);
        assert_eq!(schema.measure(MeasureId(1)).unit, MeasureUnit::Plain);
        // Primary accessors keep working.
        assert_eq!(schema.measure_name(), "first");
        assert_eq!(schema.measure_unit(), MeasureUnit::Fraction);
    }

    #[test]
    #[should_panic(expected = "at least one measure")]
    fn empty_measures_rejected() {
        let mut b = DimensionBuilder::new("d", "in", "anywhere");
        let l = b.add_level("level");
        b.add_member(l, b.root(), "m");
        let _ = Schema::with_measures("broken", vec![b.build()], vec![]);
    }
}
