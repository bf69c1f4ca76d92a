//! Convolution problem shapes and the seven-index loop algebra.

use serde::{Deserialize, Serialize};

use crate::{Fnv1a, SpecError};

/// The product of `factors`, or the [`SpecError::InvalidShape`] saying that
/// `what` — the product `names`, `·`-separated — overflows `usize`, and at
/// which factor.
pub(crate) fn checked_product(
    what: &str,
    names: &str,
    factors: &[usize],
) -> Result<usize, SpecError> {
    let mut product = 1usize;
    for (&value, name) in factors.iter().zip(names.split('·')) {
        product = product.checked_mul(value).ok_or_else(|| {
            SpecError::InvalidShape(format!("{what} {names} overflows at {name} = {value}"))
        })?;
    }
    Ok(product)
}

/// The seven loop indices of the conv2d loop nest.
///
/// The order of the enum discriminants matches the canonical loop order used
/// throughout the paper: `n, k, c, r, s, h, w` (Listing 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LoopIndex {
    /// Batch dimension.
    N,
    /// Output-channel dimension.
    K,
    /// Input-channel (reduction) dimension.
    C,
    /// Kernel-row (reduction) dimension.
    R,
    /// Kernel-column (reduction) dimension.
    S,
    /// Output-row dimension.
    H,
    /// Output-column dimension.
    W,
}

/// All seven loop indices in canonical order.
pub const ALL_INDICES: [LoopIndex; 7] = [
    LoopIndex::N,
    LoopIndex::K,
    LoopIndex::C,
    LoopIndex::R,
    LoopIndex::S,
    LoopIndex::H,
    LoopIndex::W,
];

impl LoopIndex {
    /// Position of this index in the canonical order (`N` = 0, ..., `W` = 6).
    pub fn canonical_position(self) -> usize {
        match self {
            LoopIndex::N => 0,
            LoopIndex::K => 1,
            LoopIndex::C => 2,
            LoopIndex::R => 3,
            LoopIndex::S => 4,
            LoopIndex::H => 5,
            LoopIndex::W => 6,
        }
    }

    /// Lower-case single-letter name used in diagnostics and printed tables.
    pub fn name(self) -> &'static str {
        match self {
            LoopIndex::N => "n",
            LoopIndex::K => "k",
            LoopIndex::C => "c",
            LoopIndex::R => "r",
            LoopIndex::S => "s",
            LoopIndex::H => "h",
            LoopIndex::W => "w",
        }
    }

    /// Whether the index appears in the `Out[n][k][h][w]` access.
    pub fn present_in_output(self) -> bool {
        matches!(self, LoopIndex::N | LoopIndex::K | LoopIndex::H | LoopIndex::W)
    }

    /// Whether the index appears in the `In[n][c][h+r][w+s]` access.
    pub fn present_in_input(self) -> bool {
        !matches!(self, LoopIndex::K)
    }

    /// Whether the index appears in the `Ker[k][c][r][s]` access.
    pub fn present_in_kernel(self) -> bool {
        matches!(self, LoopIndex::K | LoopIndex::C | LoopIndex::R | LoopIndex::S)
    }

    /// Whether the index is a reduction dimension (absent from the output).
    pub fn is_reduction(self) -> bool {
        !self.present_in_output()
    }

    /// Parse a single-letter (case-insensitive) index name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "n" => Some(LoopIndex::N),
            "k" => Some(LoopIndex::K),
            "c" => Some(LoopIndex::C),
            "r" => Some(LoopIndex::R),
            "s" => Some(LoopIndex::S),
            "h" => Some(LoopIndex::H),
            "w" => Some(LoopIndex::W),
            _ => None,
        }
    }
}

impl std::fmt::Display for LoopIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A conv2d problem shape: the seven loop extents plus the kernel stride,
/// dilation, and channel-group count.
///
/// `h` and `w` are the *output* spatial extents; the input spatial extents are
/// derived (`input_h()` / `input_w()`). The paper's Table 1 specifies the
/// input image height/width `H/W`; [`ConvShape::from_table1`] converts.
///
/// # Generalized convolution
///
/// Beyond the paper's dense stride-1/2 conv2d, a shape carries:
///
/// * `dilation` — the kernel is sampled every `dilation` input pixels, so a
///   `R×S` kernel covers an effective window of
///   `((R-1)·dilation+1) × ((S-1)·dilation+1)` input pixels (DeepLab/ESPNet
///   style atrous convolution). `dilation == 1` is the dense case.
/// * `groups` — input and output channels are split into `groups` independent
///   convolutions: output channel `k` reduces only over the
///   `C/groups` input channels of its group. The kernel tensor shrinks to
///   `Ker[K][C/groups][R][S]`, and the canonical C loop runs over the
///   *per-group* reduction extent [`ConvShape::reduction_c`].
///   `groups == C == K` is a depthwise convolution (MobileNet).
///
/// `c` and `k` always store the *total* channel counts of the tensors;
/// [`ConvShape::extent`] reports the loop-trip counts (so
/// `extent(LoopIndex::C) == c / groups`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Batch size.
    pub n: usize,
    /// Number of output channels.
    pub k: usize,
    /// Total number of input channels (across all groups).
    pub c: usize,
    /// Kernel height.
    pub r: usize,
    /// Kernel width.
    pub s: usize,
    /// Output height.
    pub h: usize,
    /// Output width.
    pub w: usize,
    /// Kernel stride (same in both spatial dimensions, 1 or 2 in the paper).
    pub stride: usize,
    /// Kernel dilation (same in both spatial dimensions); 1 = dense.
    pub dilation: usize,
    /// Number of channel groups; 1 = dense, `c == k == groups` = depthwise.
    pub groups: usize,
}

impl ConvShape {
    /// Create a dense (dilation 1, a single channel group) shape, validating
    /// that every extent is non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidShape`] if any extent or the stride is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        k: usize,
        c: usize,
        r: usize,
        s: usize,
        h: usize,
        w: usize,
        stride: usize,
    ) -> Result<Self, SpecError> {
        Self::new_general(n, k, c, r, s, h, w, stride, 1, 1)
    }

    /// Create a fully general shape (stride, dilation, groups), validating
    /// every field.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidShape`] if any extent, the stride, the
    /// dilation, or the group count is zero, if `groups` does not divide
    /// both `c` and `k`, or if the flops, an input extent or the tensors'
    /// element counts do not fit `usize` (naming the extent at which the
    /// product overflowed).
    #[allow(clippy::too_many_arguments)]
    pub fn new_general(
        n: usize,
        k: usize,
        c: usize,
        r: usize,
        s: usize,
        h: usize,
        w: usize,
        stride: usize,
        dilation: usize,
        groups: usize,
    ) -> Result<Self, SpecError> {
        let shape = ConvShape { n, k, c, r, s, h, w, stride, dilation, groups };
        if groups == 0 {
            return Err(SpecError::InvalidShape("groups is zero".into()));
        }
        for &idx in &ALL_INDICES {
            if shape.extent(idx) == 0 {
                return Err(SpecError::InvalidShape(format!("extent of {idx} is zero")));
            }
        }
        if stride == 0 {
            return Err(SpecError::InvalidShape("stride is zero".into()));
        }
        if dilation == 0 {
            return Err(SpecError::InvalidShape("dilation is zero".into()));
        }
        if !c.is_multiple_of(groups) || !k.is_multiple_of(groups) {
            return Err(SpecError::InvalidShape(format!(
                "groups {groups} must divide both c {c} and k {k}"
            )));
        }
        shape.check_sizes()?;
        Ok(shape)
    }

    /// Every size the workspace computes from the extents in `usize` —
    /// [`flops`](Self::flops), the input extents, and the three tensors'
    /// element counts, alone and summed (a full tile's footprint) — must fit.
    /// The kernel and output counts are each at most the multiply-add count.
    fn check_sizes(&self) -> Result<(), SpecError> {
        let ConvShape { n, k, c, r, s, h, w, stride, dilation, .. } = *self;
        let flops = [2, n, k, self.reduction_c(), r, s, h, w];
        checked_product("flops", "2·n·k·c/groups·r·s·h·w", &flops)?;
        let input_extent = |name: &str, out: usize, kernel: usize| {
            (out - 1)
                .checked_mul(stride)
                .zip((kernel - 1).checked_mul(dilation))
                .and_then(|(rows, window)| rows.checked_add(window)?.checked_add(1))
                .ok_or_else(|| {
                    SpecError::InvalidShape(format!(
                        "input extent overflows at {name} = {out} (stride {stride}, dilation {dilation})"
                    ))
                })
        };
        let input = [n, c, input_extent("h", h, r)?, input_extent("w", w, s)?];
        let input = checked_product("input elements", "n·c·input_h·input_w", &input)?;
        let (kernel, output) = (self.kernel_elems(), self.output_elems());
        match input.checked_add(kernel).and_then(|sum| sum.checked_add(output)) {
            Some(_) => Ok(()),
            None => Err(SpecError::InvalidShape(format!(
                "tensor elements overflow: input {input} + kernel {kernel} + output {output}"
            ))),
        }
    }

    /// Builder-style copy with a different dilation.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidShape`] when `dilation` is zero.
    pub fn with_dilation(self, dilation: usize) -> Result<Self, SpecError> {
        Self::new_general(
            self.n,
            self.k,
            self.c,
            self.r,
            self.s,
            self.h,
            self.w,
            self.stride,
            dilation,
            self.groups,
        )
    }

    /// Builder-style copy with a different group count.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidShape`] when `groups` is zero or does not
    /// divide both channel counts.
    pub fn with_groups(self, groups: usize) -> Result<Self, SpecError> {
        Self::new_general(
            self.n,
            self.k,
            self.c,
            self.r,
            self.s,
            self.h,
            self.w,
            self.stride,
            self.dilation,
            groups,
        )
    }

    /// A shape from a Table-1 style row: `K`, `C`, input `H/W` (square),
    /// kernel `R/S` (square), stride, batch 1.
    ///
    /// The output spatial extent is `(H_in - R) / stride + 1` ("valid"
    /// convolution, as in the paper's generated code which does not pad).
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the input (`rs > hw_in`).
    pub fn from_table1(k: usize, c: usize, hw_in: usize, rs: usize, stride: usize) -> Self {
        assert!(rs <= hw_in, "kernel extent {rs} exceeds input extent {hw_in}");
        let out = (hw_in - rs) / stride + 1;
        ConvShape { n: 1, k, c, r: rs, s: rs, h: out, w: out, stride, dilation: 1, groups: 1 }
    }

    /// A depthwise shape (`groups == c == k`) in Table-1 style: `channels`,
    /// square input `H/W`, square kernel `R/S`, stride, batch 1.
    pub fn depthwise(channels: usize, hw_in: usize, rs: usize, stride: usize) -> Self {
        let mut shape = Self::from_table1(channels, channels, hw_in, rs, stride);
        shape.groups = channels;
        shape
    }

    /// A dilated shape in Table-1 style: the output extent accounts for the
    /// effective (dilated) kernel window, `(H_in - (R-1)·dilation - 1) /
    /// stride + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the effective (dilated) kernel window does not fit the
    /// input (`(rs-1)·dilation + 1 > hw_in`) — easy to hit with large
    /// dilations on small feature maps.
    pub fn from_table1_dilated(
        k: usize,
        c: usize,
        hw_in: usize,
        rs: usize,
        stride: usize,
        dilation: usize,
    ) -> Self {
        let eff = (rs - 1) * dilation + 1;
        assert!(
            eff <= hw_in,
            "effective dilated kernel extent {eff} (rs {rs}, dilation {dilation}) exceeds input extent {hw_in}"
        );
        let out = (hw_in - eff) / stride + 1;
        ConvShape { n: 1, k, c, r: rs, s: rs, h: out, w: out, stride, dilation, groups: 1 }
    }

    /// A degenerate shape with all extents 1 except `which`, which is 2.
    /// Useful in unit tests of the loop algebra.
    pub fn unit(which: LoopIndex) -> Self {
        let mut s = ConvShape {
            n: 1,
            k: 1,
            c: 1,
            r: 1,
            s: 1,
            h: 1,
            w: 1,
            stride: 1,
            dilation: 1,
            groups: 1,
        };
        s.set_extent(which, 1);
        s
    }

    /// The loop-trip count for `idx`.
    ///
    /// For every index but `C` this is the corresponding field; for `C` it is
    /// the *per-group* reduction extent `c / groups`, because the canonical C
    /// loop of a grouped convolution only runs over the channels of one group.
    pub fn extent(&self, idx: LoopIndex) -> usize {
        match idx {
            LoopIndex::N => self.n,
            LoopIndex::K => self.k,
            LoopIndex::C => self.reduction_c(),
            LoopIndex::R => self.r,
            LoopIndex::S => self.s,
            LoopIndex::H => self.h,
            LoopIndex::W => self.w,
        }
    }

    /// Set the loop-trip count for `idx`. Setting `C` scales the total
    /// channel count so that [`ConvShape::extent`] round-trips
    /// (`c = value * groups`).
    pub fn set_extent(&mut self, idx: LoopIndex, value: usize) {
        match idx {
            LoopIndex::N => self.n = value,
            LoopIndex::K => self.k = value,
            LoopIndex::C => self.c = value * self.groups,
            LoopIndex::R => self.r = value,
            LoopIndex::S => self.s = value,
            LoopIndex::H => self.h = value,
            LoopIndex::W => self.w = value,
        }
    }

    /// All loop-trip counts in canonical `[n, k, c/groups, r, s, h, w]` order.
    pub fn extents(&self) -> [usize; 7] {
        [self.n, self.k, self.reduction_c(), self.r, self.s, self.h, self.w]
    }

    /// The per-group reduction extent of the C loop (`c / groups`).
    pub fn reduction_c(&self) -> usize {
        self.c / self.groups.max(1)
    }

    /// Output channels per group (`k / groups`).
    pub fn k_per_group(&self) -> usize {
        self.k / self.groups.max(1)
    }

    /// The group an output channel belongs to.
    pub fn group_of_k(&self, k: usize) -> usize {
        k / self.k_per_group().max(1)
    }

    /// The inclusive range of channel groups reached by a K range of
    /// `k_len >= 1` output channels starting at `k_start` — the shared
    /// band arithmetic of the executors and simulators. Dense shapes always
    /// span exactly group `0..=0`.
    pub fn groups_spanned(&self, k_start: usize, k_len: usize) -> std::ops::RangeInclusive<usize> {
        let first = self.group_of_k(k_start);
        let last = self.group_of_k(k_start + k_len.max(1) - 1);
        first..=last
    }

    /// Effective (dilated) kernel height in input pixels.
    pub fn effective_r(&self) -> usize {
        (self.r - 1) * self.dilation + 1
    }

    /// Effective (dilated) kernel width in input pixels.
    pub fn effective_s(&self) -> usize {
        (self.s - 1) * self.dilation + 1
    }

    /// Input image height required by this output shape.
    pub fn input_h(&self) -> usize {
        (self.h - 1) * self.stride + self.effective_r()
    }

    /// Input image width required by this output shape.
    pub fn input_w(&self) -> usize {
        (self.w - 1) * self.stride + self.effective_s()
    }

    /// Number of elements of the output tensor `Out[n][k][h][w]`.
    pub fn output_elems(&self) -> usize {
        self.n * self.k * self.h * self.w
    }

    /// Number of elements of the input tensor `In[n][c][h_in][w_in]`.
    pub fn input_elems(&self) -> usize {
        self.n * self.c * self.input_h() * self.input_w()
    }

    /// Number of elements of the kernel tensor `Ker[k][c/groups][r][s]`.
    /// Grouping shrinks the weight tensor by `1/groups`.
    pub fn kernel_elems(&self) -> usize {
        self.k * self.reduction_c() * self.r * self.s
    }

    /// Dimensions of the input tensor, `(n, c, input_h, input_w)`.
    pub fn input_dims(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.input_h(), self.input_w())
    }

    /// Dimensions of the kernel tensor, `(k, c/groups, r, s)`.
    pub fn kernel_dims(&self) -> (usize, usize, usize, usize) {
        (self.k, self.reduction_c(), self.r, self.s)
    }

    /// Dimensions of the output tensor, `(n, k, h, w)`.
    pub fn output_dims(&self) -> (usize, usize, usize, usize) {
        (self.n, self.k, self.h, self.w)
    }

    /// Total floating-point operations (multiply + add counted separately).
    /// Grouping shrinks the reduction, hence the FLOPs, by `1/groups`.
    pub fn flops(&self) -> usize {
        2 * self.n * self.k * self.reduction_c() * self.r * self.s * self.h * self.w
    }

    /// Number of iterations of the seven-deep loop nest (MACs).
    pub fn macs(&self) -> usize {
        self.flops() / 2
    }

    /// Whether this is a 1x1 ("pointwise") convolution.
    pub fn is_pointwise(&self) -> bool {
        self.r == 1 && self.s == 1
    }

    /// Whether this is a depthwise convolution (`groups == c == k`).
    pub fn is_depthwise(&self) -> bool {
        self.groups > 1 && self.groups == self.c && self.groups == self.k
    }

    /// A short human-readable description such as `K64 C32 HW272 RS3 s1`;
    /// dilation and groups are appended only when not 1 (`d2`, `g32`).
    pub fn describe(&self) -> String {
        let mut text = format!(
            "N{} K{} C{} HW{}x{} RS{}x{} s{}",
            self.n, self.k, self.c, self.h, self.w, self.r, self.s, self.stride
        );
        if self.dilation != 1 {
            text.push_str(&format!(" d{}", self.dilation));
        }
        if self.groups != 1 {
            text.push_str(&format!(" g{}", self.groups));
        }
        text
    }

    /// A stable 64-bit fingerprint of every shape field (FNV-1a, like
    /// [`crate::machine::MachineModel::fingerprint`]): identical across
    /// processes and platforms, so persisted schedule caches can key on it.
    /// Two shapes with different `dilation` or `groups` never share a
    /// fingerprint even when their seven extents agree.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new();
        for v in [
            self.n,
            self.k,
            self.c,
            self.r,
            self.s,
            self.h,
            self.w,
            self.stride,
            self.dilation,
            self.groups,
        ] {
            hash.u64(v as u64);
        }
        hash.finish()
    }
}

// Serde is written by hand (the derive would make `dilation` and `groups`
// required fields): both are optional on the wire and default to 1, so JSON
// produced before the generalization — requests, db pages, cached plans —
// still deserializes to the same dense shape.
impl Serialize for ConvShape {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) {
        sink.begin_object();
        sink.field("n", &self.n);
        sink.field("k", &self.k);
        sink.field("c", &self.c);
        sink.field("r", &self.r);
        sink.field("s", &self.s);
        sink.field("h", &self.h);
        sink.field("w", &self.w);
        sink.field("stride", &self.stride);
        sink.field("dilation", &self.dilation);
        sink.field("groups", &self.groups);
        sink.end_object();
    }
}

impl Deserialize for ConvShape {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = v.as_object().ok_or_else(|| serde::DeError::expected("object", "ConvShape"))?;
        let opt_one = |name: &str| -> Result<usize, serde::DeError> {
            match obj.iter().find(|(key, _)| key == name) {
                None => Ok(1),
                Some((_, value)) => usize::from_value(value).map_err(|e| {
                    serde::DeError::custom(format!("field `{name}` of ConvShape: {e}"))
                }),
            }
        };
        let shape = ConvShape {
            n: serde::de_field(obj, "n", "ConvShape")?,
            k: serde::de_field(obj, "k", "ConvShape")?,
            c: serde::de_field(obj, "c", "ConvShape")?,
            r: serde::de_field(obj, "r", "ConvShape")?,
            s: serde::de_field(obj, "s", "ConvShape")?,
            h: serde::de_field(obj, "h", "ConvShape")?,
            w: serde::de_field(obj, "w", "ConvShape")?,
            stride: serde::de_field(obj, "stride", "ConvShape")?,
            dilation: opt_one("dilation")?,
            groups: opt_one("groups")?,
        };
        ConvShape::new_general(
            shape.n,
            shape.k,
            shape.c,
            shape.r,
            shape.s,
            shape.h,
            shape.w,
            shape.stride,
            shape.dilation,
            shape.groups,
        )
        .map_err(|e| serde::DeError::custom(format!("invalid ConvShape: {e}")))
    }
}

impl std::fmt::Display for ConvShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A permutation of the seven tile-loop indices.
///
/// Index 0 of the inner vector is the **outermost** loop and index 6 is the
/// **innermost** loop. (The paper writes permutations as `⟨p7, ..., p1⟩` with
/// `p1` innermost; we store the same order, outermost first.)
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Permutation {
    order: [LoopIndex; 7],
}

impl Permutation {
    /// Build a permutation from outermost to innermost order.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidPermutation`] if the seven indices are not
    /// each present exactly once.
    pub fn new(order: [LoopIndex; 7]) -> Result<Self, SpecError> {
        let mut seen = [false; 7];
        for &idx in &order {
            let p = idx.canonical_position();
            if seen[p] {
                return Err(SpecError::InvalidPermutation(format!("duplicate index {idx}")));
            }
            seen[p] = true;
        }
        Ok(Permutation { order })
    }

    /// The canonical loop order `n, k, c, r, s, h, w` (outermost to innermost).
    pub fn canonical() -> Self {
        Permutation { order: ALL_INDICES }
    }

    /// Parse a permutation from a string of seven letters, outermost first,
    /// e.g. `"kcrsnhw"`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidPermutation`] on malformed input.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let letters: Vec<char> = text.trim().chars().filter(|c| !c.is_whitespace()).collect();
        if letters.len() != 7 {
            return Err(SpecError::InvalidPermutation(format!(
                "expected 7 loop letters, got {}",
                letters.len()
            )));
        }
        let mut order = [LoopIndex::N; 7];
        for (i, ch) in letters.iter().enumerate() {
            order[i] = LoopIndex::parse(&ch.to_string()).ok_or_else(|| {
                SpecError::InvalidPermutation(format!("unknown loop letter '{ch}'"))
            })?;
        }
        Permutation::new(order)
    }

    /// Loop order from outermost (first) to innermost (last).
    pub fn outer_to_inner(&self) -> &[LoopIndex; 7] {
        &self.order
    }

    /// Loop order from innermost (first) to outermost (last).
    pub fn inner_to_outer(&self) -> [LoopIndex; 7] {
        let mut rev = self.order;
        rev.reverse();
        rev
    }

    /// Enumerate all 5040 permutations of the seven loop indices.
    pub fn enumerate_all() -> Vec<Permutation> {
        let mut result = Vec::with_capacity(5040);
        let mut current = ALL_INDICES;
        permute_recursive(&mut current, 0, &mut result);
        result
    }

    /// A compact textual form, outermost first, e.g. `kcrsnhw`.
    pub fn compact(&self) -> String {
        self.order.iter().map(|i| i.name()).collect()
    }
}

fn permute_recursive(arr: &mut [LoopIndex; 7], start: usize, out: &mut Vec<Permutation>) {
    if start == arr.len() {
        out.push(Permutation { order: *arr });
        return;
    }
    for i in start..arr.len() {
        arr.swap(start, i);
        permute_recursive(arr, start + 1, out);
        arr.swap(start, i);
    }
}

impl std::fmt::Display for Permutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨{}⟩", self.compact())
    }
}

impl Default for Permutation {
    fn default() -> Self {
        Permutation::canonical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_presence_matches_paper_structure() {
        // Each of the seven loop indices is present in exactly two of the
        // three tensors (Sec. 4 of the paper).
        for &idx in &ALL_INDICES {
            let count = [idx.present_in_output(), idx.present_in_input(), idx.present_in_kernel()]
                .iter()
                .filter(|&&b| b)
                .count();
            assert_eq!(count, 2, "{idx} should be present in exactly two tensors");
        }
    }

    #[test]
    fn output_absent_indices_are_reductions() {
        assert!(LoopIndex::C.is_reduction());
        assert!(LoopIndex::R.is_reduction());
        assert!(LoopIndex::S.is_reduction());
        assert!(!LoopIndex::N.is_reduction());
        assert!(!LoopIndex::K.is_reduction());
        assert!(!LoopIndex::H.is_reduction());
        assert!(!LoopIndex::W.is_reduction());
    }

    #[test]
    fn shape_new_rejects_zero_extent() {
        assert!(ConvShape::new(1, 0, 1, 1, 1, 1, 1, 1).is_err());
        assert!(ConvShape::new(1, 1, 1, 1, 1, 1, 1, 0).is_err());
        assert!(ConvShape::new(1, 2, 3, 1, 1, 4, 4, 1).is_ok());
    }

    #[test]
    fn from_table1_computes_output_extent() {
        // Yolo layer Y0: K=32, C=3, H/W=544, R/S=3, stride 1 → output 542.
        let y0 = ConvShape::from_table1(32, 3, 544, 3, 1);
        assert_eq!(y0.h, 542);
        assert_eq!(y0.w, 542);
        assert_eq!(y0.input_h(), 544);
        assert_eq!(y0.input_w(), 544);
        // ResNet R1*: K=64, C=3, H/W=224, R/S=7, stride 2 → output 109.
        let r1 = ConvShape::from_table1(64, 3, 224, 7, 2);
        assert_eq!(r1.h, (224 - 7) / 2 + 1);
        assert_eq!(r1.input_h(), (r1.h - 1) * 2 + 7);
    }

    #[test]
    fn flops_and_element_counts() {
        let s = ConvShape::new(2, 4, 3, 3, 3, 8, 8, 1).unwrap();
        assert_eq!(s.flops(), 2 * 2 * 4 * 3 * 3 * 3 * 8 * 8);
        assert_eq!(s.macs() * 2, s.flops());
        assert_eq!(s.output_elems(), 2 * 4 * 8 * 8);
        assert_eq!(s.kernel_elems(), 4 * 3 * 3 * 3);
        assert_eq!(s.input_elems(), 2 * 3 * 10 * 10);
    }

    #[test]
    fn extent_roundtrip() {
        let mut s = ConvShape::new(1, 2, 3, 4, 5, 6, 7, 1).unwrap();
        for (i, &idx) in ALL_INDICES.iter().enumerate() {
            assert_eq!(s.extent(idx), i + 1);
            s.set_extent(idx, 10 + i);
            assert_eq!(s.extent(idx), 10 + i);
        }
    }

    #[test]
    fn general_shape_validation() {
        // groups must divide both channel counts.
        assert!(ConvShape::new_general(1, 8, 8, 3, 3, 4, 4, 1, 1, 4).is_ok());
        assert!(ConvShape::new_general(1, 8, 6, 3, 3, 4, 4, 1, 1, 4).is_err());
        assert!(ConvShape::new_general(1, 6, 8, 3, 3, 4, 4, 1, 1, 4).is_err());
        assert!(ConvShape::new_general(1, 8, 8, 3, 3, 4, 4, 1, 0, 1).is_err());
        assert!(ConvShape::new_general(1, 8, 8, 3, 3, 4, 4, 1, 1, 0).is_err());
        let dense = ConvShape::new(1, 8, 8, 3, 3, 4, 4, 1).unwrap();
        assert_eq!(dense.dilation, 1);
        assert_eq!(dense.groups, 1);
        assert!(dense.with_groups(2).is_ok());
        assert!(dense.with_groups(3).is_err());
        assert!(dense.with_dilation(2).is_ok());
        assert!(dense.with_dilation(0).is_err());
    }

    #[test]
    fn sizes_that_overflow_usize_are_rejected_naming_the_extent() {
        let big = 1usize << (usize::BITS / 2);
        let message = |shape: Result<ConvShape, SpecError>| shape.unwrap_err().to_string();
        // 2·n·k·c wraps to 0: the product the served `"flops":0.0` came from.
        let flops = message(ConvShape::new(1, big, big, 3, 3, big, big, 1));
        assert_eq!(
            flops,
            format!("invalid shape: flops 2·n·k·c/groups·r·s·h·w overflows at c/groups = {big}")
        );
        // The request the issue names: h = usize::MAX at stride 2.
        let h = message(ConvShape::new(1, 1, 1, 1, 1, usize::MAX, 1, 2));
        assert!(h.ends_with(&format!("overflows at h = {}", usize::MAX)), "{h}");
        // 2·h fits; (h − 1)·stride does not.
        let extent = message(ConvShape::new(1, 1, 1, 1, 1, usize::MAX / 2, 1, 4));
        assert!(extent.contains("input extent overflows at h = "), "{extent}");
        // The flops fit; the strided input does not.
        let input = message(ConvShape::new(1 << 20, 1, 1 << 20, 1, 1, 2, 2, big));
        assert!(
            input.contains("input elements n·c·input_h·input_w overflows at input_h = "),
            "{input}"
        );
        // Input, kernel and output each fit; a full tile's footprint does not.
        let sum = message(ConvShape::new(1, 1, 1, 1, 1, 1 << 31, (1 << 31) - 1, 2));
        assert!(sum.contains("tensor elements overflow: input "), "{sum}");
        // Below the line a problem is accepted, and its sizes do not wrap.
        let fits = ConvShape::new(1, 1 << 20, 1 << 20, 1, 1, 1 << 20, 1, 1).unwrap();
        assert_eq!(fits.flops(), 1 << 61);
        assert!(fits.with_groups(1 << 20).is_ok());
    }

    #[test]
    fn grouped_shape_shrinks_reduction_kernel_and_flops() {
        let dense = ConvShape::new(1, 16, 8, 3, 3, 6, 6, 1).unwrap();
        let grouped = dense.with_groups(4).unwrap();
        assert_eq!(grouped.extent(LoopIndex::C), 2);
        assert_eq!(grouped.reduction_c(), 2);
        assert_eq!(grouped.k_per_group(), 4);
        assert_eq!(grouped.kernel_elems(), dense.kernel_elems() / 4);
        assert_eq!(grouped.flops(), dense.flops() / 4);
        // The input tensor keeps all channels.
        assert_eq!(grouped.input_elems(), dense.input_elems());
        assert_eq!(grouped.kernel_dims(), (16, 2, 3, 3));
        // Output channel 5 is in group 1, reading channels 2..4.
        assert_eq!(grouped.group_of_k(5), 1);
        // K ranges map to inclusive group bands (k_per_group = 4).
        assert_eq!(grouped.groups_spanned(0, 4), 0..=0);
        assert_eq!(grouped.groups_spanned(3, 2), 0..=1);
        assert_eq!(grouped.groups_spanned(0, 16), 0..=3);
        let dense2 = ConvShape::new(1, 16, 8, 3, 3, 6, 6, 1).unwrap();
        assert_eq!(dense2.groups_spanned(0, 16), 0..=0);
    }

    #[test]
    fn depthwise_shape_has_unit_reduction() {
        let dw = ConvShape::depthwise(32, 112, 3, 1);
        assert!(dw.is_depthwise());
        assert_eq!((dw.k, dw.c, dw.groups), (32, 32, 32));
        assert_eq!(dw.extent(LoopIndex::C), 1);
        assert_eq!(dw.kernel_dims(), (32, 1, 3, 3));
        assert_eq!(dw.h, 110);
        assert!(!ConvShape::new(1, 4, 4, 3, 3, 4, 4, 1).unwrap().is_depthwise());
    }

    #[test]
    #[should_panic(expected = "effective dilated kernel")]
    fn from_table1_dilated_rejects_oversized_windows() {
        let _ = ConvShape::from_table1_dilated(4, 4, 8, 3, 1, 4);
    }

    #[test]
    #[should_panic(expected = "kernel extent")]
    fn from_table1_rejects_oversized_kernels() {
        let _ = ConvShape::from_table1(4, 4, 2, 3, 1);
    }

    #[test]
    fn dilation_widens_the_input_halo() {
        let d = ConvShape::from_table1_dilated(4, 4, 33, 3, 1, 2);
        assert_eq!(d.effective_r(), 5);
        assert_eq!(d.h, 29);
        assert_eq!(d.input_h(), 33);
        let dense = ConvShape::from_table1(4, 4, 33, 3, 1);
        assert_eq!(dense.effective_r(), 3);
        assert!(d.input_elems() == 4 * 33 * 33);
        // Same kernel element count regardless of dilation.
        assert_eq!(d.kernel_elems(), dense.kernel_elems());
    }

    #[test]
    fn set_extent_c_round_trips_under_groups() {
        let mut g = ConvShape::new_general(1, 8, 8, 3, 3, 4, 4, 1, 1, 4).unwrap();
        assert_eq!(g.extent(LoopIndex::C), 2);
        g.set_extent(LoopIndex::C, 3);
        assert_eq!(g.extent(LoopIndex::C), 3);
        assert_eq!(g.c, 12);
    }

    #[test]
    fn describe_mentions_dilation_and_groups_only_when_general() {
        let dense = ConvShape::new(1, 8, 8, 3, 3, 4, 4, 1).unwrap();
        assert!(!dense.describe().contains(" d"));
        assert!(!dense.describe().contains(" g"));
        let general = dense.with_dilation(2).unwrap().with_groups(2).unwrap();
        assert!(general.describe().contains("d2"));
        assert!(general.describe().contains("g2"));
    }

    #[test]
    fn shape_fingerprints_distinguish_dilation_and_groups() {
        let dense = ConvShape::new(1, 8, 8, 3, 3, 4, 4, 1).unwrap();
        assert_eq!(
            dense.fingerprint(),
            ConvShape::new(1, 8, 8, 3, 3, 4, 4, 1).unwrap().fingerprint()
        );
        assert_ne!(dense.fingerprint(), dense.with_dilation(2).unwrap().fingerprint());
        assert_ne!(dense.fingerprint(), dense.with_groups(2).unwrap().fingerprint());
        assert_ne!(
            dense.with_dilation(2).unwrap().fingerprint(),
            dense.with_groups(2).unwrap().fingerprint()
        );
    }

    #[test]
    fn serde_defaults_keep_legacy_shapes_parseable() {
        use crate::shape::ConvShape;
        // A legacy wire form without dilation/groups parses as the dense shape.
        let legacy = serde::Value::Object(vec![
            ("n".into(), serde::Value::UInt(1)),
            ("k".into(), serde::Value::UInt(8)),
            ("c".into(), serde::Value::UInt(4)),
            ("r".into(), serde::Value::UInt(3)),
            ("s".into(), serde::Value::UInt(3)),
            ("h".into(), serde::Value::UInt(10)),
            ("w".into(), serde::Value::UInt(10)),
            ("stride".into(), serde::Value::UInt(1)),
        ]);
        let parsed = <ConvShape as serde::Deserialize>::from_value(&legacy).unwrap();
        assert_eq!(parsed, ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).unwrap());
        // Round trip preserves the general fields.
        let dw = ConvShape::depthwise(8, 10, 3, 1).with_dilation(2).unwrap();
        let round = <ConvShape as serde::Deserialize>::from_value(&serde::to_value(&dw));
        assert_eq!(round.unwrap(), dw);
        // Invalid group structure is rejected at the serde boundary.
        let bad = serde::Value::Object(vec![
            ("n".into(), serde::Value::UInt(1)),
            ("k".into(), serde::Value::UInt(8)),
            ("c".into(), serde::Value::UInt(3)),
            ("r".into(), serde::Value::UInt(1)),
            ("s".into(), serde::Value::UInt(1)),
            ("h".into(), serde::Value::UInt(4)),
            ("w".into(), serde::Value::UInt(4)),
            ("stride".into(), serde::Value::UInt(1)),
            ("groups".into(), serde::Value::UInt(2)),
        ]);
        assert!(<ConvShape as serde::Deserialize>::from_value(&bad).is_err());
    }

    #[test]
    fn permutation_parse_and_display() {
        let p = Permutation::parse("kcrsnhw").unwrap();
        assert_eq!(p.outer_to_inner()[0], LoopIndex::K);
        assert_eq!(p.inner_to_outer()[0], LoopIndex::W);
        assert_eq!(p.compact(), "kcrsnhw");
        assert!(Permutation::parse("kcrsnh").is_err());
        assert!(Permutation::parse("kcrsnhh").is_err());
        assert!(Permutation::parse("kcrsnhx").is_err());
    }

    #[test]
    fn enumerate_all_has_5040_unique_permutations() {
        let all = Permutation::enumerate_all();
        assert_eq!(all.len(), 5040);
        let unique: std::collections::HashSet<String> = all.iter().map(|p| p.compact()).collect();
        assert_eq!(unique.len(), 5040);
    }

    #[test]
    fn inner_to_outer_reverses() {
        let p = Permutation::parse("nkcrshw").unwrap();
        let rev = p.inner_to_outer();
        assert_eq!(rev[0], LoopIndex::W);
        assert_eq!(rev[6], LoopIndex::N);
    }
}
