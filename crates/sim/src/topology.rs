//! Machine topology descriptions (paper Table 2).
//!
//! The simulator's hierarchical begging lists and its NUMA cost model need
//! to know how virtual threads map onto sockets and blades. The real engine
//! runs on whatever host it is given and keeps one flat begging list.

/// A cc-NUMA machine shape: `cores_per_socket × sockets_per_blade × blades`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineTopology {
    pub cores_per_socket: usize,
    pub sockets_per_blade: usize,
    pub blades: usize,
    /// Hardware threads per core (1 = no SMT, 2 = hyper-threading).
    pub smt: usize,
}

impl MachineTopology {
    /// PSC Blacklight (Table 2): Intel Xeon X7560, 8 cores/socket,
    /// 2 sockets/blade, 128 blades, 64 GB/socket, ≤5 hops.
    pub fn blacklight() -> Self {
        MachineTopology {
            cores_per_socket: 8,
            sockets_per_blade: 2,
            blades: 128,
            smt: 1,
        }
    }

    /// CRTC (Table 2): Intel Xeon X5690, 6 cores/socket, 2 sockets/blade,
    /// 1 blade.
    pub fn crtc() -> Self {
        MachineTopology {
            cores_per_socket: 6,
            sockets_per_blade: 2,
            blades: 1,
            smt: 1,
        }
    }

    /// Same machine with two hardware threads per core.
    pub fn with_smt(mut self, smt: usize) -> Self {
        self.smt = smt.max(1);
        self
    }

    /// Total hardware thread capacity.
    pub fn capacity(&self) -> usize {
        self.cores_per_socket * self.sockets_per_blade * self.blades * self.smt
    }

    /// Hardware threads per socket.
    #[inline]
    pub fn threads_per_socket(&self) -> usize {
        self.cores_per_socket * self.smt
    }

    /// Hardware threads per blade.
    #[inline]
    pub fn threads_per_blade(&self) -> usize {
        self.threads_per_socket() * self.sockets_per_blade
    }

    /// Socket index (global) of a thread.
    #[inline]
    pub fn socket_of(&self, tid: usize) -> usize {
        tid / self.threads_per_socket()
    }

    /// Blade index of a thread.
    #[inline]
    pub fn blade_of(&self, tid: usize) -> usize {
        tid / self.threads_per_blade()
    }

    /// Physical core index of a thread (relevant under SMT).
    #[inline]
    pub fn core_of(&self, tid: usize) -> usize {
        tid / self.smt
    }

    /// Number of router hops between two blades, matching the fat-tree
    /// behaviour the paper reports (§6.3): 0 within a blade, 3 between
    /// blades under the same lower-level switch (groups of 8, enough for
    /// 128 cores), 5 through the root switches beyond that — "the maximum
    /// number of hops for up to 128 cores was 3, while for 144, 160 and 176
    /// cores this number became 5".
    pub fn hops_between(&self, blade_a: usize, blade_b: usize) -> usize {
        if blade_a == blade_b {
            0
        } else if blade_a / 8 == blade_b / 8 {
            3
        } else {
            5
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blacklight_shape() {
        let t = MachineTopology::blacklight();
        assert_eq!(t.capacity(), 2048);
        assert_eq!(t.threads_per_blade(), 16);
        assert_eq!(t.socket_of(0), 0);
        assert_eq!(t.socket_of(8), 1);
        assert_eq!(t.blade_of(15), 0);
        assert_eq!(t.blade_of(16), 1);
    }

    #[test]
    fn smt_mapping() {
        let t = MachineTopology::blacklight().with_smt(2);
        assert_eq!(t.threads_per_socket(), 16);
        assert_eq!(t.core_of(0), 0);
        assert_eq!(t.core_of(1), 0);
        assert_eq!(t.core_of(2), 1);
    }

    #[test]
    fn hops_are_bounded_and_symmetric() {
        let t = MachineTopology::blacklight();
        assert_eq!(t.hops_between(3, 3), 0);
        for (a, b) in [(0, 1), (0, 5), (0, 64), (17, 113)] {
            let h = t.hops_between(a, b);
            assert!((1..=6).contains(&h));
            assert_eq!(h, t.hops_between(b, a));
        }
        // far blades route through more switches than near ones
        assert!(t.hops_between(0, 127) > t.hops_between(0, 1));
    }
}
