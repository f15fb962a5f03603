//! Seeded defect: `ab` takes alpha then (via a call) beta, while
//! `ba` takes beta then (via a call) alpha — an AB/BA cycle spread
//! across four functions. Must fail `--deny --pass locks` with
//! DA408. The locks are deliberately outside the declared hierarchy
//! so only the cycle detector fires.

pub struct Peers;

impl Peers {
    fn ab(&self) {
        let a = lock(&self.alpha);
        self.takes_beta();
        drop(a);
    }

    fn takes_beta(&self) {
        let b = lock(&self.beta);
        let _ = b;
    }

    fn ba(&self) {
        let b = lock(&self.beta);
        self.takes_alpha();
        drop(b);
    }

    fn takes_alpha(&self) {
        let a = lock(&self.alpha);
        let _ = a;
    }
}
