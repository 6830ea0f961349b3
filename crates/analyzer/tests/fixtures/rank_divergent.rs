//! Fixture: spmd-rank-divergent-collective positive, allowed, and
//! hoisted-negative cases.

fn skewed(&self) -> Result<(), Error> {
    if self.rank == 0 {
        self.group.barrier()?;
    }
    Ok(())
}

fn else_arm(&self, from_rank: usize) {
    if self.rank == from_rank {
        prepare();
    } else {
        self.group.all_reduce(&mut self.buf);
    }
}

fn match_on_rank(&self) {
    match self.rank {
        0 => self.group.propose_evict(1),
        _ => noop(),
    }
}

fn justified(&self) {
    if self.rank == 0 {
        // lint: allow(spmd-rank-divergent-collective) — the follower side issues
        // the matching broadcast below; both schedules agree
        self.group.broadcast(0, &mut self.buf);
    }
}

fn hoisted(&self, from_rank: usize) {
    if self.rank == from_rank {
        pack();
    }
    self.group.broadcast(from_rank, &mut self.buf);
}
