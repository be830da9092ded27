//! The SPU interconnect: a (possibly restricted) crossbar between the
//! unified SPU register and the MMX operand lanes.
//!
//! Paper Table 1 evaluates four configurations; the trade-off is between
//! orthogonality (how much of the file a computation can reach, and at what
//! granularity) and silicon cost:
//!
//! | shape | crossbar | ports  | reach |
//! |-------|----------|--------|-------|
//! | A     | 64×32    | 8-bit  | whole file, byte granular |
//! | B     | 32×32    | 8-bit  | 4-register window, byte granular |
//! | C     | 32×16    | 16-bit | whole file, 16-bit granular |
//! | D     | 16×16    | 16-bit | 4-register window, 16-bit granular |
//!
//! The paper's §5.1: *"All the applications used in this paper can be
//! realized with configuration D"* — verified by this reproduction's
//! shape ablation (`paper ablation`).
//!
//! Routing is represented canonically at byte granularity
//! ([`ByteRoute`]: eight source-byte selectors into the 64-byte file);
//! [`CrossbarShape::validate_route`] checks whether a given route is
//! *expressible* in a shape (port granularity + window reach).

use crate::register::FILE_BYTES;
use std::fmt;

/// A crossbar configuration (paper Table 1 row).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CrossbarShape {
    /// Short name ("A".."D" for the canonical shapes).
    pub name: &'static str,
    /// Number of input ports.
    pub in_ports: u16,
    /// Number of output ports (serving both MMX pipes: 2 instructions ×
    /// 2 operands).
    pub out_ports: u16,
    /// Width of each port in bits (8 or 16).
    pub port_bits: u8,
}

/// Configuration A: 64×32 crossbar with 8-bit ports — full byte-level
/// flexibility ("will eliminate all inter-word and intra-word restrictions
/// and make the sub-word parallelism fully orthogonal").
pub const SHAPE_A: CrossbarShape =
    CrossbarShape { name: "A", in_ports: 64, out_ports: 32, port_bits: 8 };

/// Configuration B: 32×32 crossbar with 8-bit ports (4-register window).
pub const SHAPE_B: CrossbarShape =
    CrossbarShape { name: "B", in_ports: 32, out_ports: 32, port_bits: 8 };

/// Configuration C: 32×16 crossbar with 16-bit ports (whole file at word
/// granularity).
pub const SHAPE_C: CrossbarShape =
    CrossbarShape { name: "C", in_ports: 32, out_ports: 16, port_bits: 16 };

/// Configuration D: 16×16 crossbar with 16-bit ports — the smallest shape,
/// sufficient for every kernel in the paper.
pub const SHAPE_D: CrossbarShape =
    CrossbarShape { name: "D", in_ports: 16, out_ports: 16, port_bits: 16 };

/// The four canonical configurations of Table 1.
pub const CANONICAL_SHAPES: [CrossbarShape; 4] = [SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D];

impl CrossbarShape {
    /// Bytes of the file reachable through the input ports.
    #[inline]
    pub const fn in_bytes(&self) -> usize {
        self.in_ports as usize * (self.port_bits as usize / 8)
    }

    /// Bytes deliverable per cycle across all output ports.
    #[inline]
    pub const fn out_bytes(&self) -> usize {
        self.out_ports as usize * (self.port_bits as usize / 8)
    }

    /// Number of 64-bit registers visible through the window.
    #[inline]
    pub const fn window_regs(&self) -> usize {
        self.in_bytes() / 8
    }

    /// True if the whole 64-byte file is reachable (no window needed).
    #[inline]
    pub const fn full_reach(&self) -> bool {
        self.in_bytes() >= FILE_BYTES
    }

    /// Select-line bits per output port (`log2(in_ports)`).
    #[inline]
    pub fn select_bits(&self) -> u32 {
        (self.in_ports as u32).next_power_of_two().trailing_zeros()
    }

    /// The paper's `K`: interconnect control bits per micro-code word
    /// (`out_ports × log2(in_ports)`); 192 for shape A, matching the field
    /// width drawn in Figure 6.
    #[inline]
    pub fn control_bits(&self) -> u32 {
        self.out_ports as u32 * self.select_bits()
    }

    /// Check that `route` is expressible in this shape given a window base
    /// register (ignored for full-reach shapes).
    ///
    /// Rules:
    /// * every source byte must fall inside the visible window;
    /// * 16-bit ports move aligned byte *pairs* together: output byte `2i`
    ///   must select an even source byte and output byte `2i+1` the byte
    ///   right above it.
    pub fn validate_route(&self, route: &ByteRoute, window_base_reg: u8) -> Result<(), RouteError> {
        let (lo, hi) = self.window(window_base_reg)?;
        for (out, &src) in route.0.iter().enumerate() {
            let src = src as usize;
            if src >= FILE_BYTES {
                return Err(RouteError::SourceOutOfFile { out, src });
            }
            if src < lo || src >= hi {
                return Err(RouteError::SourceOutsideWindow { out, src, lo, hi });
            }
        }
        if self.port_bits == 16 {
            for i in 0..4 {
                let a = route.0[2 * i] as usize;
                let b = route.0[2 * i + 1] as usize;
                if !a.is_multiple_of(2) || b != a + 1 {
                    return Err(RouteError::MisalignedPair { pair: i, lo_src: a, hi_src: b });
                }
            }
        }
        Ok(())
    }

    /// Byte range `[lo, hi)` of the file visible through the window.
    pub fn window(&self, window_base_reg: u8) -> Result<(usize, usize), RouteError> {
        if self.full_reach() {
            return Ok((0, FILE_BYTES));
        }
        let lo = window_base_reg as usize * 8;
        let hi = lo + self.in_bytes();
        if hi > FILE_BYTES {
            return Err(RouteError::WindowOutOfFile {
                base_reg: window_base_reg,
                regs: self.window_regs(),
            });
        }
        Ok((lo, hi))
    }
}

impl fmt::Display for CrossbarShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}x{} crossbar with {}-bit ports)",
            self.name, self.in_ports, self.out_ports, self.port_bits
        )
    }
}

/// Route validation errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// A selector exceeds the 64-byte file.
    SourceOutOfFile { out: usize, src: usize },
    /// A selector falls outside the shape's register window.
    SourceOutsideWindow { out: usize, src: usize, lo: usize, hi: usize },
    /// 16-bit ports require aligned byte pairs to move together.
    MisalignedPair { pair: usize, lo_src: usize, hi_src: usize },
    /// The window itself does not fit in the file.
    WindowOutOfFile { base_reg: u8, regs: usize },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::SourceOutOfFile { out, src } => {
                write!(f, "output byte {out} selects source byte {src} outside the 64-byte file")
            }
            RouteError::SourceOutsideWindow { out, src, lo, hi } => write!(
                f,
                "output byte {out} selects source byte {src} outside the window [{lo}, {hi})"
            ),
            RouteError::MisalignedPair { pair, lo_src, hi_src } => write!(
                f,
                "16-bit port pair {pair} selects bytes ({lo_src}, {hi_src}), which do not form an aligned word"
            ),
            RouteError::WindowOutOfFile { base_reg, regs } => write!(
                f,
                "window of {regs} registers at base mm{base_reg} exceeds the register file"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// A full-resolution operand route: for each of the eight bytes delivered
/// to one operand lane, the index of the source byte in the 64-byte file.
///
/// Entry `i` is the source for output byte `i` (byte `i` of the operand the
/// functional unit sees; byte 0 is least significant).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ByteRoute(pub [u8; 8]);

impl ByteRoute {
    /// The identity route for register `r`: the operand is the register's
    /// own eight bytes (what the hardware does when the route is
    /// "straight").
    pub fn identity(r: subword_isa::reg::MmReg) -> ByteRoute {
        ByteRoute(std::array::from_fn(|i| r.file_byte(i) as u8))
    }

    /// Build a route from word-granular selectors: `words[i]` is the index
    /// (`0..32`) of the 16-bit file word delivered to operand word `i`.
    pub fn from_words(words: [u8; 4]) -> ByteRoute {
        let mut b = [0u8; 8];
        for (i, &w) in words.iter().enumerate() {
            b[2 * i] = w * 2;
            b[2 * i + 1] = w * 2 + 1;
        }
        ByteRoute(b)
    }

    /// Build a route that selects word lanes from registers:
    /// `(reg, lane)` pairs, lane `0..4`.
    ///
    /// ```
    /// use subword_spu::ByteRoute;
    /// use subword_isa::reg::MmReg::*;
    ///
    /// // Gather word 0 of MM0..MM3 — a matrix column in one fetch.
    /// let col = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM2, 0), (MM3, 0)]);
    /// let mut file = [0u8; 64];
    /// for (reg, val) in [(MM0, 11u16), (MM1, 22), (MM2, 33), (MM3, 44)] {
    ///     file[reg.file_byte(0)..reg.file_byte(0) + 2].copy_from_slice(&val.to_le_bytes());
    /// }
    /// let gathered = col.apply(&file);
    /// assert_eq!(gathered & 0xffff, 11);
    /// assert_eq!((gathered >> 48) & 0xffff, 44);
    /// ```
    pub fn from_reg_words(sel: [(subword_isa::reg::MmReg, u8); 4]) -> ByteRoute {
        ByteRoute::from_words(sel.map(|(r, l)| (r.index() * 4) as u8 + l))
    }

    /// Build a route that selects dword lanes from registers:
    /// `(reg, lane)` pairs, lane `0..2`.
    pub fn from_reg_dwords(sel: [(subword_isa::reg::MmReg, u8); 2]) -> ByteRoute {
        let mut b = [0u8; 8];
        for (i, (r, l)) in sel.iter().enumerate() {
            for k in 0..4 {
                b[4 * i + k] = (r.index() * 8) as u8 + l * 4 + k as u8;
            }
        }
        ByteRoute(b)
    }

    /// Apply the route to the unified register view, producing the operand
    /// value the functional unit sees.
    #[inline]
    pub fn apply(&self, file: &[u8; FILE_BYTES]) -> u64 {
        let mut out = [0u8; 8];
        for (i, &src) in self.0.iter().enumerate() {
            out[i] = file[src as usize & (FILE_BYTES - 1)];
        }
        u64::from_le_bytes(out)
    }

    /// True if the route is the identity for register `r`.
    pub fn is_identity_for(&self, r: subword_isa::reg::MmReg) -> bool {
        *self == ByteRoute::identity(r)
    }

    /// Bitmask of the MMX registers this route gathers from: bit `i` set
    /// ⇔ some source byte lies in `mm<i>`. This is the allocation-free
    /// form of the route's register set, feeding the simulator's
    /// mask-based hazard checks.
    #[inline]
    pub fn reg_mask(&self) -> u8 {
        let mut m = 0u8;
        for &b in &self.0 {
            m |= 1 << ((b / 8) & 7);
        }
        m
    }

    /// Lowest register window `[base_reg, base_reg + n)` that covers all
    /// source bytes, as `(base_reg, reg_count)`.
    pub fn reg_span(&self) -> (u8, u8) {
        let lo = self.0.iter().map(|&b| b / 8).min().unwrap_or(0);
        let hi = self.0.iter().map(|&b| b / 8).max().unwrap_or(0);
        (lo, hi - lo + 1)
    }

    /// True if every aligned byte pair moves together (16-bit
    /// expressible, regardless of window).
    pub fn word_aligned(&self) -> bool {
        (0..4).all(|i| {
            let a = self.0[2 * i];
            a.is_multiple_of(2) && self.0[2 * i + 1] == a + 1
        })
    }
}

impl fmt::Display for ByteRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "route[")?;
        for (i, b) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "mm{}.{}", b / 8, b % 8)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_isa::reg::MmReg::*;

    fn file_with_pattern() -> [u8; FILE_BYTES] {
        std::array::from_fn(|i| i as u8)
    }

    #[test]
    fn canonical_shape_geometry() {
        assert_eq!(SHAPE_A.in_bytes(), 64);
        assert_eq!(SHAPE_A.out_bytes(), 32);
        assert!(SHAPE_A.full_reach());
        assert_eq!(SHAPE_B.in_bytes(), 32);
        assert_eq!(SHAPE_B.window_regs(), 4);
        assert!(!SHAPE_B.full_reach());
        assert_eq!(SHAPE_C.in_bytes(), 64);
        assert!(SHAPE_C.full_reach());
        assert_eq!(SHAPE_D.in_bytes(), 32);
        assert_eq!(SHAPE_D.window_regs(), 4);
    }

    /// Paper Figure 6 draws the interconnect field of one micro-word as
    /// 192 bits for the full configuration: 32 output ports × 6 select
    /// bits.
    #[test]
    fn figure6_shape_a_has_192_control_bits() {
        assert_eq!(SHAPE_A.control_bits(), 192);
        assert_eq!(SHAPE_B.control_bits(), 32 * 5);
        assert_eq!(SHAPE_C.control_bits(), 16 * 5);
        assert_eq!(SHAPE_D.control_bits(), 16 * 4);
    }

    #[test]
    fn identity_route_reads_own_register() {
        let f = file_with_pattern();
        let r = ByteRoute::identity(MM2);
        assert_eq!(r.apply(&f), u64::from_le_bytes([16, 17, 18, 19, 20, 21, 22, 23]));
        assert!(r.is_identity_for(MM2));
        assert!(!r.is_identity_for(MM3));
    }

    #[test]
    fn cross_register_gather() {
        // Gather word 0 of MM0..MM3 — the "column becomes a row in one
        // instruction" capability from the paper's transpose discussion.
        let f = file_with_pattern();
        let r = ByteRoute::from_reg_words([(MM0, 0), (MM1, 0), (MM2, 0), (MM3, 0)]);
        assert_eq!(r.apply(&f), u64::from_le_bytes([0, 1, 8, 9, 16, 17, 24, 25]));
        assert_eq!(r.reg_span(), (0, 4));
        assert!(r.word_aligned());
    }

    #[test]
    fn dword_route() {
        let f = file_with_pattern();
        let r = ByteRoute::from_reg_dwords([(MM1, 1), (MM0, 0)]);
        assert_eq!(r.apply(&f), u64::from_le_bytes([12, 13, 14, 15, 0, 1, 2, 3]));
    }

    #[test]
    fn shape_a_accepts_any_byte_scatter() {
        let r = ByteRoute([63, 0, 17, 42, 5, 33, 8, 1]);
        assert!(SHAPE_A.validate_route(&r, 0).is_ok());
        // ... but 16-bit shapes reject it (not word aligned).
        assert!(matches!(SHAPE_C.validate_route(&r, 0), Err(RouteError::MisalignedPair { .. })));
    }

    #[test]
    fn windowed_shapes_enforce_reach() {
        // Word gather across MM0..MM3 fits shape D at window base 0 ...
        let r = ByteRoute::from_reg_words([(MM0, 0), (MM1, 1), (MM2, 2), (MM3, 3)]);
        assert!(SHAPE_D.validate_route(&r, 0).is_ok());
        // ... but not at window base 4.
        assert!(matches!(
            SHAPE_D.validate_route(&r, 4),
            Err(RouteError::SourceOutsideWindow { .. })
        ));
        // A route touching MM7 needs window base 4.
        let r7 = ByteRoute::from_reg_words([(MM4, 0), (MM5, 0), (MM6, 0), (MM7, 0)]);
        assert!(SHAPE_D.validate_route(&r7, 4).is_ok());
        assert!(SHAPE_D.validate_route(&r7, 0).is_err());
        // Window must fit the file.
        assert!(matches!(SHAPE_D.validate_route(&r7, 5), Err(RouteError::WindowOutOfFile { .. })));
    }

    #[test]
    fn full_reach_shapes_ignore_window_base() {
        let r = ByteRoute::from_reg_words([(MM7, 3), (MM0, 0), (MM3, 2), (MM5, 1)]);
        assert!(SHAPE_C.validate_route(&r, 0).is_ok());
        assert!(SHAPE_C.validate_route(&r, 7).is_ok());
        assert!(SHAPE_A.validate_route(&r, 3).is_ok());
    }

    #[test]
    fn reg_span_and_alignment_queries() {
        let r = ByteRoute::identity(MM6);
        assert_eq!(r.reg_span(), (6, 1));
        assert!(r.word_aligned());
        let odd = ByteRoute([1, 2, 4, 5, 8, 9, 12, 13]);
        assert!(!odd.word_aligned());
    }

    #[test]
    fn display_forms() {
        assert_eq!(SHAPE_D.to_string(), "D (16x16 crossbar with 16-bit ports)");
        let r = ByteRoute::identity(MM0);
        assert!(r.to_string().starts_with("route[mm0.0 mm0.1"));
    }
}
