//! Fixture: three impls of one trait method, each issuing collectives,
//! so their schedule-report keys need ordinals.
struct Direct;
struct Gathered;
struct Staged;

impl Exchange for Direct {
    fn all_to_all(&self, data: &[f32], group: &GroupComm) -> Result<Vec<f32>> {
        group.all_to_all(data)
    }
}

impl Exchange for Gathered {
    fn all_to_all(&self, data: &[f32], group: &GroupComm) -> Result<Vec<f32>> {
        let all = group.all_gather(data)?;
        group.all_to_all(&all)
    }
}

impl Exchange for Staged {
    fn all_to_all(&self, data: &[f32], group: &GroupComm) -> Result<Vec<f32>> {
        let staged = group.all_to_all(data)?;
        group.all_to_all(&staged)
    }
}
