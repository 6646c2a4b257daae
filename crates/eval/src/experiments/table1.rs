//! Table I — demographics of the experiment subjects.
//!
//! The population generator reproduces the paper's subject table
//! exactly; this runner renders it.

use echo_sim::Population;

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// User id range, e.g. `"1-5"`.
    pub user_id: String,
    /// Gender label.
    pub gender: String,
    /// Age bracket label.
    pub age: String,
    /// Occupation label.
    pub occupation: String,
}

echo_obs::json_object!(Row {
    user_id,
    gender,
    age,
    occupation
});

/// The rendered table.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Rows in paper order.
    pub rows: Vec<Row>,
    /// Subjects registered with the system.
    pub registered: usize,
    /// Subjects acting as spoofers.
    pub spoofers: usize,
}

echo_obs::json_object!(Output {
    rows,
    registered,
    spoofers
});

/// Builds Table I from the paper population.
pub fn run(seed: u64) -> Output {
    let pop = Population::paper_table1(seed);
    let rows = pop
        .demographics_rows()
        .into_iter()
        .map(|(user_id, gender, age, occupation)| Row {
            user_id,
            gender,
            age,
            occupation,
        })
        .collect();
    Output {
        rows,
        registered: pop.registered().count(),
        spoofers: pop.spoofers().count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper() {
        let t = run(1);
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.registered, 12);
        assert_eq!(t.spoofers, 8);
        assert_eq!(t.rows[0].user_id, "1-5");
        assert_eq!(t.rows[0].occupation, "Undergraduate Student");
        assert_eq!(t.rows[4].age, "30-40");
    }
}
