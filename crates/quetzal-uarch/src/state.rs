//! Architectural state: registers, simulated memory and accelerator.

use quetzal_accel::{QBuffers, QzConfig};
use quetzal_isa::{ElemSize, PReg, VReg, XReg, VLEN_BYTES};

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{BitAnd, BitOr, Not};

const PAGE_BITS: u32 = 12;
pub(crate) const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Pages kept on the free list across [`SimMemory::clear`] calls
/// (16 MiB): enough to recycle every page the repo's workloads touch
/// per pair, small enough that a one-off large run does not pin its
/// peak footprint forever.
const PAGE_POOL_CAP: usize = 4096;

/// Multiplicative hasher for the `u64` page-number keys.
///
/// The default SipHash costs more than the page access it guards —
/// every guest load and store in *both* execution engines pays it.
/// Page numbers are small and dense, so one odd-constant multiply
/// (Fibonacci hashing) spreads them across the table at a fraction of
/// the cost while keeping high bits well mixed for the control bytes.
#[derive(Default)]
struct PageNoHasher(u64);

impl Hasher for PageNoHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u64 keys below).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageNoHasher>>;

/// Default resident-page budget: 2^16 pages = 256 MiB of simulated
/// memory — far above any workload in the repo, far below what an
/// adversarial scatter across the 64-bit address space could otherwise
/// force the *host* to allocate.
pub const DEFAULT_PAGE_BUDGET: usize = 1 << 16;

/// A write needed a new page beyond the resident-page budget. Surfaced
/// by the interpreter as [`SimError::MemoryFault`](crate::SimError).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageBudgetExceeded;

/// Sparse, paged, byte-addressable simulated memory.
///
/// Unwritten memory reads as zero — convenient for buffers that
/// algorithms initialise lazily. The number of resident pages is capped
/// ([`DEFAULT_PAGE_BUDGET`]): guest writes that would exceed the cap
/// fail with [`PageBudgetExceeded`] instead of growing host memory
/// without bound.
#[derive(Debug, Clone)]
pub struct SimMemory {
    pages: PageMap,
    page_budget: usize,
    /// Recycled page allocations ([`clear`](Self::clear) parks pages
    /// here instead of freeing them). Invisible to guests: pooled pages
    /// are re-zeroed before reuse.
    pool: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl Default for SimMemory {
    fn default() -> SimMemory {
        SimMemory {
            pages: PageMap::default(),
            page_budget: DEFAULT_PAGE_BUDGET,
            pool: Vec::new(),
        }
    }
}

impl SimMemory {
    /// Creates an empty memory.
    pub fn new() -> SimMemory {
        SimMemory::default()
    }

    /// Sets the resident-page budget (tests and fault-injection harnesses
    /// lower it to keep adversarial cases cheap).
    pub fn set_page_budget(&mut self, pages: usize) {
        self.page_budget = pages;
    }

    /// The page a write to `addr` lands in, allocating it if the budget
    /// allows.
    pub(crate) fn page_for_write(
        &mut self,
        addr: u64,
    ) -> Result<&mut Box<[u8; PAGE_SIZE]>, PageBudgetExceeded> {
        use std::collections::hash_map::Entry;
        let resident = self.pages.len();
        match self.pages.entry(addr >> PAGE_BITS) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(v) => {
                if resident >= self.page_budget {
                    return Err(PageBudgetExceeded);
                }
                let page = match self.pool.pop() {
                    Some(mut p) => {
                        p.fill(0);
                        p
                    }
                    None => Box::new([0u8; PAGE_SIZE]),
                };
                Ok(v.insert(page))
            }
        }
    }

    /// The resident page holding `addr`, if any (unwritten pages read
    /// as zero).
    pub(crate) fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_BITS)).map(|p| &**p)
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_BITS)) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte, failing if it needs a page beyond the budget.
    ///
    /// # Errors
    ///
    /// Returns [`PageBudgetExceeded`] when the write would allocate a
    /// page past the resident cap.
    pub fn try_write_u8(&mut self, addr: u64, value: u8) -> Result<(), PageBudgetExceeded> {
        let page = self.page_for_write(addr)?;
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
        Ok(())
    }

    /// Writes one byte.
    ///
    /// # Panics
    ///
    /// Panics if the resident-page budget is exceeded (host-staging API;
    /// guest writes go through [`try_write_u8`](Self::try_write_u8)).
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.try_write_u8(addr, value)
            .expect("simulated memory page budget exceeded");
    }

    /// Reads `n ≤ 8` bytes little-endian, zero-extended.
    ///
    /// Fast path: an access contained in one page costs a single page
    /// lookup instead of one per byte (the interpreter's dominant
    /// memory operation — every scalar/vector element read lands here).
    pub fn read_le(&self, addr: u64, n: usize) -> u64 {
        debug_assert!(n <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + n <= PAGE_SIZE {
            match self.pages.get(&(addr >> PAGE_BITS)) {
                Some(p) => le_word(&p[off..off + n], n),
                None => 0,
            }
        } else {
            // Page-straddling access: per-byte slow path. Wrapping
            // address arithmetic: an access at the top of the 64-bit
            // space wraps around, like the hardware bus would.
            let mut v = 0u64;
            for i in 0..n {
                v |= (self.read_u8(addr.wrapping_add(i as u64)) as u64) << (8 * i);
            }
            v
        }
    }

    /// Writes the low `n ≤ 8` bytes of `value` little-endian (single
    /// page lookup when the access stays within one page).
    ///
    /// # Errors
    ///
    /// Returns [`PageBudgetExceeded`] when the write would allocate a
    /// page past the resident cap.
    pub fn try_write_le(
        &mut self,
        addr: u64,
        value: u64,
        n: usize,
    ) -> Result<(), PageBudgetExceeded> {
        debug_assert!(n <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + n <= PAGE_SIZE {
            let page = self.page_for_write(addr)?;
            set_le_word(&mut page[off..off + n], value, n);
        } else {
            for i in 0..n {
                self.try_write_u8(addr.wrapping_add(i as u64), (value >> (8 * i)) as u8)?;
            }
        }
        Ok(())
    }

    /// Writes the low `n ≤ 8` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if the resident-page budget is exceeded (host-staging API;
    /// guest writes go through [`try_write_le`](Self::try_write_le)).
    pub fn write_le(&mut self, addr: u64, value: u64, n: usize) {
        self.try_write_le(addr, value, n)
            .expect("simulated memory page budget exceeded");
    }

    /// Copies a byte slice into memory, page by page.
    ///
    /// # Panics
    ///
    /// Panics if the resident-page budget is exceeded (host-staging API).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let chunk = rest.len().min(PAGE_SIZE - off);
            let page = self
                .page_for_write(addr)
                .expect("simulated memory page budget exceeded");
            page[off..off + chunk].copy_from_slice(&rest[..chunk]);
            rest = &rest[chunk..];
            addr = addr.wrapping_add(chunk as u64);
        }
    }

    /// Reads `len` bytes into a fresh vector, page by page.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut addr = addr;
        while out.len() < len {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let chunk = (len - out.len()).min(PAGE_SIZE - off);
            match self.pages.get(&(addr >> PAGE_BITS)) {
                Some(p) => out.extend_from_slice(&p[off..off + chunk]),
                None => out.resize(out.len() + chunk, 0),
            }
            addr = addr.wrapping_add(chunk as u64);
        }
        out
    }

    /// Number of resident pages (for footprint diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Drops every page: all addresses read as zero again, as in a
    /// fresh memory. Keeps the page-table capacity so a pooled machine
    /// does not re-grow the map from scratch, and parks up to
    /// [`PAGE_POOL_CAP`] page allocations on a free list for reuse —
    /// per-pair page allocation was a measurable slice of pooled batch
    /// runs. Pages beyond the cap are freed, so retained footprint
    /// stays bounded across workloads.
    pub fn clear(&mut self) {
        for (_, page) in self.pages.drain() {
            if self.pool.len() < PAGE_POOL_CAP {
                self.pool.push(page);
            }
        }
    }
}

/// A 512-bit vector register value.
pub type VValue = [u8; VLEN_BYTES];

/// Full architectural state of one core plus its QUETZAL instance.
#[derive(Debug, Clone)]
pub struct ArchState {
    x: [u64; 32],
    v: [VValue; 32],
    /// Predicates: one bit per byte lane (bit *i* governs byte lane *i*,
    /// as in SVE). An element is active iff the bit of its first byte is
    /// set.
    p: [u64; 16],
    /// Simulated main memory.
    pub mem: SimMemory,
    /// QUETZAL accelerator state.
    pub qz: QBuffers,
}

impl ArchState {
    /// Fresh state with zeroed registers and the given accelerator
    /// configuration.
    pub fn new(qz_config: QzConfig) -> ArchState {
        ArchState {
            x: [0; 32],
            v: [[0; VLEN_BYTES]; 32],
            p: [0; 16],
            mem: SimMemory::new(),
            qz: QBuffers::new(qz_config),
        }
    }

    /// Zeroes registers, memory and the accelerator in place. A reset
    /// state is architecturally indistinguishable from
    /// `ArchState::new(self.qz.config())` — the machine-pool
    /// equivalence test pins this. The memory page budget returns to its
    /// default, like every other per-run knob.
    pub fn reset(&mut self) {
        self.x = [0; 32];
        self.v = [[0; VLEN_BYTES]; 32];
        self.p = [0; 16];
        self.mem.clear();
        self.mem.set_page_budget(DEFAULT_PAGE_BUDGET);
        self.qz.reset();
    }

    /// Scalar register value.
    pub fn x(&self, r: XReg) -> u64 {
        self.x[r.index() as usize]
    }

    /// Sets a scalar register.
    pub fn set_x(&mut self, r: XReg, v: u64) {
        self.x[r.index() as usize] = v;
    }

    /// Vector register bytes.
    pub fn v(&self, r: VReg) -> &VValue {
        &self.v[r.index() as usize]
    }

    /// Mutable vector register bytes.
    pub fn v_mut(&mut self, r: VReg) -> &mut VValue {
        &mut self.v[r.index() as usize]
    }

    /// Predicate register (bit per byte lane).
    pub fn p(&self, r: PReg) -> u64 {
        self.p[r.index() as usize]
    }

    /// Sets a predicate register.
    pub fn set_p(&mut self, r: PReg, v: u64) {
        self.p[r.index() as usize] = v;
    }

    /// Reads element `i` of vector `r`, zero-extended to 64 bits.
    pub fn v_elem(&self, r: VReg, i: usize, esize: ElemSize) -> u64 {
        let v = &self.v[r.index() as usize];
        match esize {
            ElemSize::B8 => u64::from(v[i]),
            ElemSize::B16 => u64::from(u16::read(&v[2 * i..])),
            ElemSize::B32 => u64::from(u32::read(&v[4 * i..])),
            ElemSize::B64 => u64::read(&v[8 * i..]),
        }
    }

    /// Reads element `i` of vector `r` sign-extended to `i64`.
    pub fn v_elem_i64(&self, r: VReg, i: usize, esize: ElemSize) -> i64 {
        sign_extend(self.v_elem(r, i, esize), esize)
    }

    /// Writes the low bits of `value` to element `i` of vector `r`.
    pub fn set_v_elem(&mut self, r: VReg, i: usize, esize: ElemSize, value: u64) {
        let v = &mut self.v[r.index() as usize];
        match esize {
            ElemSize::B8 => v[i] = value as u8,
            ElemSize::B16 => u16::wrap(value).write(&mut v[2 * i..]),
            ElemSize::B32 => u32::wrap(value).write(&mut v[4 * i..]),
            ElemSize::B64 => value.write(&mut v[8 * i..]),
        }
    }

    /// Whether element `i` (at `esize`) is active under predicate `pg`.
    pub fn lane_active(&self, pg: PReg, i: usize, esize: ElemSize) -> bool {
        (self.p(pg) >> (i * esize.bytes())) & 1 == 1
    }

    /// Builds a predicate word with the first `n` elements (at `esize`)
    /// active.
    pub fn pred_first_n(n: usize, esize: ElemSize) -> u64 {
        let bytes = esize.lanes().min(n) * esize.bytes();
        let span = if bytes >= 64 {
            u64::MAX
        } else {
            (1u64 << bytes) - 1
        };
        span & lane_bits(esize)
    }

    /// Counts active elements of a predicate at `esize`.
    pub fn pred_count(&self, pg: PReg, esize: ElemSize) -> u64 {
        u64::from((self.p(pg) & lane_bits(esize)).count_ones())
    }

    /// The eight 64-bit lanes of a vector register.
    pub fn v_lanes64(&self, r: VReg) -> [u64; 8] {
        self.lanes::<u64>(r)
    }

    /// Active-lane mask at 64-bit granularity.
    pub fn mask64(&self, pg: PReg) -> [bool; 8] {
        let p = self.p(pg);
        std::array::from_fn(|i| (p >> (8 * i)) & 1 == 1)
    }

    /// Every lane of vector `r` at element type `T`.
    #[inline]
    pub(crate) fn lanes<T: Lane>(&self, r: VReg) -> T::Lanes {
        let mut out = T::ZEROS;
        let bytes = self.v[r.index() as usize].chunks_exact(T::BYTES);
        for (lane, b) in out.as_mut().iter_mut().zip(bytes) {
            *lane = T::read(b);
        }
        out
    }

    /// Overwrites every lane of vector `r` at element type `T`.
    #[inline]
    pub(crate) fn set_lanes<T: Lane>(&mut self, r: VReg, lanes: &T::Lanes) {
        let bytes = self.v[r.index() as usize].chunks_exact_mut(T::BYTES);
        for (b, &lane) in bytes.zip(lanes.as_ref()) {
            lane.write(b);
        }
    }

    /// Predicate `pg` expanded once to a lane mask at element type `T`:
    /// all ones in each active lane, zero in each inactive one.
    #[inline]
    pub(crate) fn lane_mask<T: Lane>(&self, pg: PReg) -> T::Lanes {
        let p = self.p(pg);
        let mut out = T::ZEROS;
        for (i, m) in out.as_mut().iter_mut().enumerate() {
            *m = T::wrap(((p >> (i * T::BYTES)) & 1).wrapping_neg());
        }
        out
    }
}

/// The predicate bits that govern elements at `esize`: bit `i * bytes`
/// for every lane `i`.
fn lane_bits(esize: ElemSize) -> u64 {
    match esize {
        ElemSize::B8 => u64::MAX,
        ElemSize::B16 => 0x5555_5555_5555_5555,
        ElemSize::B32 => 0x1111_1111_1111_1111,
        ElemSize::B64 => 0x0101_0101_0101_0101,
    }
}

/// One vector element type: the fixed-width integer a register holds at
/// one [`ElemSize`], so that lane kernels are written once over element
/// width and monomorphised per size. Register bytes are little-endian.
pub(crate) trait Lane:
    Copy + Eq + BitAnd<Output = Self> + BitOr<Output = Self> + Not<Output = Self>
{
    /// Width in bytes.
    const BYTES: usize;
    /// Every lane of one register (`VLEN_BYTES / BYTES` elements).
    type Lanes: Copy + AsRef<[Self]> + AsMut<[Self]>;
    /// A register of zero lanes.
    const ZEROS: Self::Lanes;
    /// The lane held by the first `BYTES` bytes of `b`.
    fn read(b: &[u8]) -> Self;
    /// Stores the lane into the first `BYTES` bytes of `b`.
    fn write(self, b: &mut [u8]);
    /// The low `BYTES` bytes of `v` (wrapping truncation).
    fn wrap(v: u64) -> Self;
    /// Zero-extends the lane to 64 bits.
    fn zext(self) -> u64;
    /// Sign-extends the lane to 64 bits.
    fn sext(self) -> i64;
}

macro_rules! impl_lane {
    ($($t:ty, $s:ty;)*) => {$(
        impl Lane for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            type Lanes = [$t; VLEN_BYTES / std::mem::size_of::<$t>()];
            const ZEROS: Self::Lanes = [0; VLEN_BYTES / std::mem::size_of::<$t>()];
            #[inline(always)]
            fn read(b: &[u8]) -> $t {
                <$t>::from_le_bytes(b[..Self::BYTES].try_into().expect("lane width"))
            }
            #[inline(always)]
            fn write(self, b: &mut [u8]) {
                b[..Self::BYTES].copy_from_slice(&self.to_le_bytes());
            }
            #[inline(always)]
            fn wrap(v: u64) -> $t {
                v as $t
            }
            #[inline(always)]
            fn zext(self) -> u64 {
                self as u64
            }
            #[inline(always)]
            fn sext(self) -> i64 {
                self as $s as i64
            }
        }
    )*};
}

impl_lane! {
    u8, i8;
    u16, i16;
    u32, i32;
    u64, i64;
}

/// The little-endian word in the first `n <= 8` bytes of `b`,
/// zero-extended; the access widths of the ISA take one fixed-width
/// read.
#[inline]
pub(crate) fn le_word(b: &[u8], n: usize) -> u64 {
    match n {
        1 => u64::from(b[0]),
        2 => u64::from(u16::read(b)),
        4 => u64::from(u32::read(b)),
        8 => u64::read(b),
        _ => b[..n]
            .iter()
            .rev()
            .fold(0, |v, &byte| (v << 8) | u64::from(byte)),
    }
}

/// Stores the low `n <= 8` bytes of `v` little-endian into `b`.
#[inline]
pub(crate) fn set_le_word(b: &mut [u8], v: u64, n: usize) {
    match n {
        1 => b[0] = v as u8,
        2 => u16::wrap(v).write(b),
        4 => u32::wrap(v).write(b),
        8 => v.write(b),
        _ => b[..n].copy_from_slice(&v.to_le_bytes()[..n]),
    }
}

/// Sign-extends the low `esize` bits of `v`.
pub fn sign_extend(v: u64, esize: ElemSize) -> i64 {
    let bits = esize.bits();
    if bits == 64 {
        v as i64
    } else {
        let shift = 64 - bits;
        ((v << shift) as i64) >> shift
    }
}

/// Truncates an `i64` to the element width (wrapping).
pub fn truncate(v: i64, esize: ElemSize) -> u64 {
    if esize.bits() == 64 {
        v as u64
    } else {
        (v as u64) & ((1u64 << esize.bits()) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_isa::{P0, V0, X0};

    #[test]
    fn memory_reads_zero_when_untouched() {
        let m = SimMemory::new();
        assert_eq!(m.read_u8(0xDEAD_BEEF), 0);
        assert_eq!(m.read_le(12345, 8), 0);
    }

    #[test]
    fn memory_round_trip_across_page_boundary() {
        let mut m = SimMemory::new();
        let addr = (PAGE_SIZE - 3) as u64;
        m.write_le(addr, 0x1122_3344_5566_7788, 8);
        assert_eq!(m.read_le(addr, 8), 0x1122_3344_5566_7788);
        assert!(m.resident_pages() >= 2);
    }

    #[test]
    fn memory_bytes_round_trip() {
        let mut m = SimMemory::new();
        m.write_bytes(100, b"hello world");
        assert_eq!(m.read_bytes(100, 11), b"hello world");
    }

    #[test]
    fn vector_element_round_trip() {
        let mut s = ArchState::new(QzConfig::QZ_8P);
        for esize in ElemSize::all() {
            for i in 0..esize.lanes() {
                s.set_v_elem(V0, i, esize, (i as u64 * 3) & 0xFF);
            }
            for i in 0..esize.lanes() {
                assert_eq!(s.v_elem(V0, i, esize), (i as u64 * 3) & 0xFF);
            }
        }
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend(0xFF, ElemSize::B8), -1);
        assert_eq!(sign_extend(0x7F, ElemSize::B8), 127);
        assert_eq!(sign_extend(0xFFFF_FFFF, ElemSize::B32), -1);
        assert_eq!(sign_extend(u64::MAX, ElemSize::B64), -1);
    }

    #[test]
    fn truncation() {
        assert_eq!(truncate(-1, ElemSize::B8), 0xFF);
        assert_eq!(truncate(256, ElemSize::B8), 0);
        assert_eq!(truncate(-1, ElemSize::B64), u64::MAX);
    }

    #[test]
    fn predicates_at_element_granularity() {
        let mut s = ArchState::new(QzConfig::QZ_8P);
        s.set_p(P0, ArchState::pred_first_n(3, ElemSize::B64));
        assert!(s.lane_active(P0, 0, ElemSize::B64));
        assert!(s.lane_active(P0, 2, ElemSize::B64));
        assert!(!s.lane_active(P0, 3, ElemSize::B64));
        assert_eq!(s.pred_count(P0, ElemSize::B64), 3);
    }

    #[test]
    fn scalar_registers() {
        let mut s = ArchState::new(QzConfig::QZ_8P);
        s.set_x(X0, 42);
        assert_eq!(s.x(X0), 42);
    }
}
