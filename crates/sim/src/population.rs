//! The experiment population — the paper's Table I demographics.
//!
//! 20 volunteers: users 1–5 male undergraduates (10–20), user 6 a female
//! undergraduate (10–20), users 7–15 male graduate students (20–30),
//! users 16–19 female graduate students (20–30), and user 20 a male
//! faculty/staff/engineer (30–40). In the paper 12 register with the
//! system and 8 act as spoofers.

use crate::body::{BodyModel, Gender};

/// Age bracket, matching the paper's Table I rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgeRange {
    /// 10–20 years.
    Teens,
    /// 20–30 years.
    Twenties,
    /// 30–40 years.
    Thirties,
}

impl AgeRange {
    /// Table label, e.g. `"10-20"`.
    pub fn label(self) -> &'static str {
        match self {
            AgeRange::Teens => "10-20",
            AgeRange::Twenties => "20-30",
            AgeRange::Thirties => "30-40",
        }
    }
}

/// Occupation, matching the paper's Table I rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Occupation {
    /// Undergraduate student.
    Undergraduate,
    /// Graduate student.
    Graduate,
    /// Faculty, staff and engineer.
    FacultyStaffEngineer,
}

impl Occupation {
    /// Table label as printed in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Occupation::Undergraduate => "Undergraduate Student",
            Occupation::Graduate => "Graduate Student",
            Occupation::FacultyStaffEngineer => "Faculty, Staff and Engineer",
        }
    }
}

/// One subject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserProfile {
    /// 1-based user id, as in Table I.
    pub id: u32,
    /// Gender.
    pub gender: Gender,
    /// Age bracket.
    pub age: AgeRange,
    /// Occupation.
    pub occupation: Occupation,
    /// Body-model seed for this subject.
    pub body_seed: u64,
}

impl UserProfile {
    /// Instantiates this subject's body model.
    pub fn body(&self) -> BodyModel {
        BodyModel::from_seed_gendered(self.body_seed, self.gender)
    }
}

/// The experiment population.
///
/// # Example
///
/// ```
/// use echo_sim::population::Population;
///
/// let pop = Population::paper_table1(42);
/// assert_eq!(pop.len(), 20);
/// assert_eq!(pop.registered().count(), 12);
/// assert_eq!(pop.spoofers().count(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    profiles: Vec<UserProfile>,
    registered_count: usize,
}

impl Population {
    /// The exact Table I population: 20 subjects with the paper's
    /// demographics; the first 12 register, the last 8 act as spoofers.
    /// `seed` offsets every subject's body seed so different populations
    /// can be generated for repeated experiments.
    pub fn paper_table1(seed: u64) -> Self {
        let mut profiles = Vec::with_capacity(20);
        for id in 1u32..=20 {
            let (gender, age, occupation) = match id {
                1..=5 => (Gender::Male, AgeRange::Teens, Occupation::Undergraduate),
                6 => (Gender::Female, AgeRange::Teens, Occupation::Undergraduate),
                7..=15 => (Gender::Male, AgeRange::Twenties, Occupation::Graduate),
                16..=19 => (Gender::Female, AgeRange::Twenties, Occupation::Graduate),
                _ => (
                    Gender::Male,
                    AgeRange::Thirties,
                    Occupation::FacultyStaffEngineer,
                ),
            };
            profiles.push(UserProfile {
                id,
                gender,
                age,
                occupation,
                body_seed: seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(id as u64),
            });
        }
        Population {
            profiles,
            registered_count: 12,
        }
    }

    /// An arbitrary population of `n` subjects, `registered` of which
    /// enrol; genders alternate.
    ///
    /// # Panics
    ///
    /// Panics if `registered > n` or `n == 0`.
    pub fn generate(n: usize, registered: usize, seed: u64) -> Self {
        assert!(n > 0, "population must be non-empty");
        assert!(registered <= n, "cannot register more subjects than exist");
        let profiles = (1..=n as u32)
            .map(|id| UserProfile {
                id,
                gender: if id % 2 == 0 {
                    Gender::Female
                } else {
                    Gender::Male
                },
                age: AgeRange::Twenties,
                occupation: Occupation::Graduate,
                body_seed: seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(id as u64),
            })
            .collect();
        Population {
            profiles,
            registered_count: registered,
        }
    }

    /// Number of subjects.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` when there are no subjects (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// All subjects.
    pub fn profiles(&self) -> &[UserProfile] {
        &self.profiles
    }

    /// Subjects that register with the system (legitimate users).
    pub fn registered(&self) -> impl Iterator<Item = &UserProfile> {
        self.profiles.iter().take(self.registered_count)
    }

    /// Subjects acting as spoofers (never enrolled).
    pub fn spoofers(&self) -> impl Iterator<Item = &UserProfile> {
        self.profiles.iter().skip(self.registered_count)
    }

    /// Renders the demographics as Table I rows: `(user-id range, gender,
    /// age, occupation)`.
    pub fn demographics_rows(&self) -> Vec<(String, String, String, String)> {
        let mut rows: Vec<(String, String, String, String)> = Vec::new();
        let mut run_start = 0usize;
        for i in 0..=self.profiles.len() {
            let close_run = i == self.profiles.len() || {
                let a = &self.profiles[run_start];
                let b = &self.profiles[i];
                (b.gender, b.age, b.occupation) != (a.gender, a.age, a.occupation)
            };
            if close_run {
                let a = &self.profiles[run_start];
                let id_label = if i - run_start == 1 {
                    format!("{}", a.id)
                } else {
                    format!("{}-{}", a.id, self.profiles[i - 1].id)
                };
                rows.push((
                    id_label,
                    format!("{:?}", a.gender),
                    a.age.label().to_string(),
                    a.occupation.label().to_string(),
                ));
                run_start = i;
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_paper_demographics() {
        let pop = Population::paper_table1(1);
        assert_eq!(pop.len(), 20);
        let p = pop.profiles();
        assert_eq!(p[0].gender, Gender::Male);
        assert_eq!(p[5].gender, Gender::Female);
        assert_eq!(p[5].age, AgeRange::Teens);
        assert_eq!(p[14].occupation, Occupation::Graduate);
        assert_eq!(p[19].occupation, Occupation::FacultyStaffEngineer);
        assert_eq!(p[19].age, AgeRange::Thirties);
    }

    #[test]
    fn twelve_registered_eight_spoofers() {
        let pop = Population::paper_table1(2);
        assert_eq!(pop.registered().count(), 12);
        assert_eq!(pop.spoofers().count(), 8);
        // Disjoint.
        let reg_ids: Vec<u32> = pop.registered().map(|p| p.id).collect();
        for s in pop.spoofers() {
            assert!(!reg_ids.contains(&s.id));
        }
    }

    #[test]
    fn body_seeds_are_unique() {
        let pop = Population::paper_table1(3);
        let mut seeds: Vec<u64> = pop.profiles().iter().map(|p| p.body_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 20);
    }

    #[test]
    fn different_population_seeds_give_different_bodies() {
        let a = Population::paper_table1(1);
        let b = Population::paper_table1(2);
        assert_ne!(a.profiles()[0].body_seed, b.profiles()[0].body_seed);
    }

    #[test]
    fn demographics_rows_match_table1_layout() {
        let pop = Population::paper_table1(4);
        let rows = pop.demographics_rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].0, "1-5");
        assert_eq!(rows[1].0, "6");
        assert_eq!(rows[2].0, "7-15");
        assert_eq!(rows[3].0, "16-19");
        assert_eq!(rows[4].0, "20");
        assert_eq!(rows[4].3, "Faculty, Staff and Engineer");
    }

    #[test]
    fn generate_respects_counts() {
        let pop = Population::generate(8, 5, 7);
        assert_eq!(pop.len(), 8);
        assert_eq!(pop.registered().count(), 5);
        assert_eq!(pop.spoofers().count(), 3);
    }

    #[test]
    #[should_panic(expected = "register")]
    fn generate_rejects_too_many_registered() {
        let _ = Population::generate(4, 5, 0);
    }

    #[test]
    fn profile_body_is_reproducible() {
        let pop = Population::paper_table1(5);
        let p = &pop.profiles()[0];
        assert_eq!(p.body(), p.body());
    }
}
