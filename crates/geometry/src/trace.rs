//! Chord extraction: tracing one ray through a collection of boxes.
//!
//! Given the fin boxes of an SRAM array and a particle ray, [`trace_boxes`]
//! returns every crossing ordered by entry parameter. The transport layer
//! then walks these crossings in order, degrading the particle energy and
//! depositing charge fin by fin — exactly the "simple 3-D analysis" of the
//! paper's Section 5.1.

use crate::{Aabb, Ray, RayHit, Vec3};
use finrad_units::Length;

/// One ray/box crossing, tagged with the index of the box that was hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// Index of the box in the traced collection.
    pub index: usize,
    /// Parametric interval of the crossing.
    pub hit: RayHit,
}

impl Crossing {
    /// Chord length through the box, as a typed length.
    pub fn chord(&self) -> Length {
        Length::from_meters(self.hit.chord_length())
    }
}

/// Traces `ray` through `boxes`, returning all crossings sorted by entry
/// parameter (ties broken by box index, so the result is deterministic).
///
/// This is the linear reference scan: it slab-tests every box. Most rays
/// of an array-scale strike touch a handful of fins, so on the paper's
/// 9×9 array (486 fin boxes) the scan spends ~2 µs per ray testing boxes
/// the ray cannot reach. The simulators trace through a [`BoxGrid`]
/// instead, which returns exactly this function's result — same
/// crossings, same order, same bits — at a fraction of the cost; this
/// function stays as the specification the grid is tested against.
///
/// # Examples
///
/// ```
/// use finrad_geometry::{Aabb, Ray, Vec3};
/// use finrad_geometry::trace::trace_boxes;
///
/// let boxes = vec![
///     Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0)),
///     Aabb::new(Vec3::new(2.0, 0.0, 0.0), Vec3::new(3.0, 1.0, 1.0)),
/// ];
/// let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
/// let crossings = trace_boxes(&ray, &boxes);
/// assert_eq!(crossings.len(), 2);
/// assert_eq!(crossings[0].index, 0);
/// assert_eq!(crossings[1].index, 1);
/// ```
pub fn trace_boxes(ray: &Ray, boxes: &[Aabb]) -> Vec<Crossing> {
    let mut crossings: Vec<Crossing> = boxes
        .iter()
        .enumerate()
        .filter_map(|(index, b)| crossing(ray, index, b))
        .collect();
    sort_crossings(&mut crossings);
    crossings
}

/// The crossing of `ray` with box `index`, if it cuts a non-empty chord.
#[inline]
fn crossing(ray: &Ray, index: usize, b: &Aabb) -> Option<Crossing> {
    b.intersect(ray)
        .and_then(|hit| (hit.chord_length() > 0.0).then_some(Crossing { index, hit }))
}

/// Orders crossings by entry parameter, ties broken by box index.
fn sort_crossings(crossings: &mut [Crossing]) {
    crossings.sort_by(|a, b| {
        a.hit
            .t_enter
            .total_cmp(&b.hit.t_enter)
            .then(a.index.cmp(&b.index))
    });
}

/// One axis of a [`BoxGrid`]: bins of equal width from `origin`.
#[derive(Debug, Clone, Copy)]
struct GridAxis {
    origin: f64,
    /// Bins per metre (0 when the extent is empty or not finite, which
    /// files everything under bin 0).
    inv_width: f64,
    bins: usize,
    /// The widest box span along this axis, in bins.
    max_span: usize,
}

impl GridAxis {
    fn new(lo: f64, hi: f64, bins: usize) -> Self {
        let extent = hi - lo;
        let inv_width = if extent > 0.0 && extent.is_finite() {
            bins as f64 / extent
        } else {
            0.0
        };
        Self {
            origin: lo,
            inv_width,
            bins,
            max_span: 0,
        }
    }

    /// The bin holding coordinate `v`, clamped to the grid. Monotone in
    /// `v`; the saturating cast sends negative offsets (and NaN) to 0.
    #[inline]
    fn bin(&self, v: f64) -> usize {
        (((v - self.origin) * self.inv_width) as usize).min(self.bins - 1)
    }

    /// The bins a query over `[lo, hi]` must visit. Widened by one bin on
    /// each side for rounding in the query endpoints, and on the low side
    /// also by the widest box span, because a box is filed only under the
    /// bin of its min corner.
    #[inline]
    fn range(&self, lo: f64, hi: f64) -> (usize, usize) {
        let first = self.bin(lo).saturating_sub(1 + self.max_span);
        let last = (self.bin(hi) + 1).min(self.bins - 1);
        (first, last)
    }
}

/// A uniform 2-D bin grid over the xy extent of a box collection, for
/// tracing many rays through the same boxes.
///
/// Each box is filed once, under the bin that holds its min corner; the
/// bin counts follow from the box count and the aspect ratio of the
/// boxes' union (about one box per bin). A query clips the ray to the
/// union, visits only the bins under the clipped segment's xy rectangle
/// and slab-tests their boxes with the same [`Aabb::intersect`] as
/// [`trace_boxes`]. The result is identical to [`trace_boxes`] — same
/// crossings, same `(t_enter, index)` order, same bits:
///
/// * the union's faces are box faces, so each box's slab interval lies
///   inside the union's in floating point, and a ray that misses the
///   union misses every box;
/// * a box the ray crosses overlaps the clipped segment's xy rectangle,
///   and the query rectangle is that rectangle widened by one bin (far
///   more than the rounding in the segment's endpoints) plus, on the low
///   side, the widest box span in bins;
/// * each box sits in exactly one bin, so no box is tested twice.
///
/// # Examples
///
/// ```
/// use finrad_geometry::{Aabb, Ray, Vec3};
/// use finrad_geometry::trace::{trace_boxes, BoxGrid};
///
/// let boxes: Vec<Aabb> = (0..8)
///     .map(|i| Aabb::from_min_size(Vec3::new(2.0 * i as f64, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0)))
///     .collect();
/// let grid = BoxGrid::new(&boxes);
/// let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
/// assert_eq!(grid.trace(&ray), trace_boxes(&ray, &boxes));
/// assert_eq!(grid.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct BoxGrid {
    /// The boxes in bin order (row-major, y outer).
    boxes: Vec<Aabb>,
    /// The caller's index of each entry of `boxes`.
    indices: Vec<usize>,
    /// Bin `b` holds `boxes[starts[b]..starts[b + 1]]`.
    starts: Vec<usize>,
    /// Union of all boxes; `None` for an empty collection.
    bounds: Option<Aabb>,
    x: GridAxis,
    y: GridAxis,
}

impl BoxGrid {
    /// Bins `boxes`. Crossings report indices into this slice.
    pub fn new(boxes: &[Aabb]) -> Self {
        let bounds = boxes.iter().copied().reduce(|a, b| a.union(&b));
        let (lo, hi) = match bounds {
            Some(u) => (u.min_corner(), u.max_corner()),
            None => (Vec3::ZERO, Vec3::ZERO),
        };
        let n = boxes.len().max(1);
        let (ex, ey) = (hi.x - lo.x, hi.y - lo.y);
        // About one box per bin, split by the aspect ratio. A degenerate or
        // non-finite extent collapses its axis to one bin.
        let per_axis = |a: f64, b: f64| -> usize {
            if a > 0.0 && a.is_finite() && b > 0.0 && b.is_finite() {
                ((n as f64 * a / b).sqrt().ceil() as usize).clamp(1, n)
            } else if a > 0.0 && a.is_finite() {
                n
            } else {
                1
            }
        };
        let mut x = GridAxis::new(lo.x, hi.x, per_axis(ex, ey));
        let mut y = GridAxis::new(lo.y, hi.y, per_axis(ey, ex));

        // (bin, caller's index) per box, sorted into bin order.
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(boxes.len());
        for (i, b) in boxes.iter().enumerate() {
            let (lo, hi) = (b.min_corner(), b.max_corner());
            x.max_span = x.max_span.max(x.bin(hi.x) - x.bin(lo.x));
            y.max_span = y.max_span.max(y.bin(hi.y) - y.bin(lo.y));
            order.push((y.bin(lo.y) * x.bins + x.bin(lo.x), i));
        }
        order.sort_unstable();
        let mut starts = vec![0usize; x.bins * y.bins + 1];
        for &(bin, _) in &order {
            starts[bin + 1] += 1;
        }
        for b in 0..x.bins * y.bins {
            starts[b + 1] += starts[b];
        }
        Self {
            boxes: order.iter().map(|&(_, i)| boxes[i]).collect(),
            indices: order.iter().map(|&(_, i)| i).collect(),
            starts,
            bounds,
            x,
            y,
        }
    }

    /// Number of binned boxes.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the grid holds no boxes.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Traces `ray` through the binned boxes: the same result as
    /// [`trace_boxes`] over the slice the grid was built from.
    pub fn trace(&self, ray: &Ray) -> Vec<Crossing> {
        let mut crossings = Vec::new();
        let Some(clip) = self.bounds.and_then(|u| u.intersect(ray)) else {
            return crossings;
        };
        let (a, b) = (ray.at(clip.t_enter), ray.at(clip.t_exit));
        let (x0, x1) = self.x.range(a.x.min(b.x), a.x.max(b.x));
        let (y0, y1) = self.y.range(a.y.min(b.y), a.y.max(b.y));
        for row in y0..=y1 {
            // The bins x0..=x1 of one row are contiguous in `boxes`.
            let first = row * self.x.bins;
            for k in self.starts[first + x0]..self.starts[first + x1 + 1] {
                if let Some(c) = crossing(ray, self.indices[k], &self.boxes[k]) {
                    crossings.push(c);
                }
            }
        }
        sort_crossings(&mut crossings);
        crossings
    }
}

/// Total chord length the ray cuts through all boxes.
pub fn total_chord(ray: &Ray, boxes: &[Aabb]) -> Length {
    trace_boxes(ray, boxes).iter().map(Crossing::chord).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling;
    use finrad_numerics::rng::{Rng, Xoshiro256pp};

    fn row_of_boxes(n: usize, pitch: f64, size: f64) -> Vec<Aabb> {
        (0..n)
            .map(|i| {
                Aabb::from_min_size(
                    Vec3::new(i as f64 * pitch, 0.0, 0.0),
                    Vec3::new(size, 1.0, 1.0),
                )
            })
            .collect()
    }

    #[test]
    fn crossings_sorted_by_entry() {
        let boxes = row_of_boxes(5, 2.0, 1.0);
        let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
        let crossings = trace_boxes(&ray, &boxes);
        assert_eq!(crossings.len(), 5);
        for (i, c) in crossings.iter().enumerate() {
            assert_eq!(c.index, i);
            assert!((c.chord().meters() - 1.0).abs() < 1e-12);
        }
        assert!(crossings
            .windows(2)
            .all(|w| w[0].hit.t_enter <= w[1].hit.t_enter));
    }

    #[test]
    fn reverse_ray_reverses_order() {
        let boxes = row_of_boxes(3, 2.0, 1.0);
        let ray = Ray::new(Vec3::new(10.0, 0.5, 0.5), Vec3::new(-1.0, 0.0, 0.0));
        let crossings = trace_boxes(&ray, &boxes);
        let order: Vec<usize> = crossings.iter().map(|c| c.index).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn miss_everything() {
        let boxes = row_of_boxes(4, 2.0, 1.0);
        let ray = Ray::new(Vec3::new(0.0, 5.0, 0.5), Vec3::new(1.0, 0.0, 0.0));
        assert!(trace_boxes(&ray, &boxes).is_empty());
        assert_eq!(total_chord(&ray, &boxes).meters(), 0.0);
    }

    #[test]
    fn partial_hits() {
        let boxes = row_of_boxes(4, 2.0, 1.0);
        // Steep diagonal ray that only clips the first two boxes.
        let ray = Ray::new(Vec3::new(0.5, 0.5, 2.0), Vec3::new(1.0, 0.0, -1.0));
        let crossings = trace_boxes(&ray, &boxes);
        assert!(!crossings.is_empty() && crossings.len() < 4);
    }

    #[test]
    fn total_chord_sums() {
        let boxes = row_of_boxes(3, 3.0, 2.0);
        let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
        assert!((total_chord(&ray, &boxes).meters() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_boxes_both_reported() {
        let boxes = vec![
            Aabb::from_min_size(Vec3::ZERO, Vec3::new(2.0, 1.0, 1.0)),
            Aabb::from_min_size(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0)),
        ];
        let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
        let crossings = trace_boxes(&ray, &boxes);
        assert_eq!(crossings.len(), 2);
    }

    #[test]
    fn empty_collection() {
        let ray = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        assert!(trace_boxes(&ray, &[]).is_empty());
        let grid = BoxGrid::new(&[]);
        assert!(grid.is_empty());
        assert!(grid.trace(&ray).is_empty());
    }

    // ---- BoxGrid ≡ trace_boxes, bit for bit ----

    /// Asserts the grid and the linear scan agree on `ray`: same indices,
    /// same order, same `t_enter`/`t_exit` bits. Returns the crossing count.
    fn assert_same(grid: &BoxGrid, boxes: &[Aabb], ray: &Ray) -> usize {
        let want = trace_boxes(ray, boxes);
        let got = grid.trace(ray);
        let key = |c: &Crossing| (c.index, c.hit.t_enter.to_bits(), c.hit.t_exit.to_bits());
        assert_eq!(
            got.iter().map(key).collect::<Vec<_>>(),
            want.iter().map(key).collect::<Vec<_>>(),
            "ray {ray:?}"
        );
        want.len()
    }

    /// A uniform integer in `0..n`.
    fn below(rng: &mut Xoshiro256pp, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// A random collection of `n` boxes: mixed sizes from sub-bin to a
    /// sizeable fraction of the extent, overlapping, some flat in one axis.
    fn random_boxes(rng: &mut Xoshiro256pp, n: usize, extent: Vec3) -> Vec<Aabb> {
        (0..n)
            .map(|_| {
                let min = sampling::point_in_box(rng, &Aabb::new(Vec3::ZERO, extent));
                let scale: f64 = if rng.gen_range(0.0..1.0) < 0.1 {
                    0.4
                } else {
                    0.03
                };
                let mut size = Vec3::new(
                    extent.x * scale * rng.gen_range(0.0..1.0),
                    extent.y * scale * rng.gen_range(0.0..1.0),
                    extent.z * rng.gen_range(0.05..1.0),
                );
                match below(rng, 8) {
                    0 => size.x = 0.0,
                    1 => size.y = 0.0,
                    _ => {}
                }
                Aabb::from_min_size(min, size)
            })
            .collect()
    }

    /// A random direction: isotropic, or snapped to an axis or an axis plane.
    fn random_direction(rng: &mut Xoshiro256pp) -> Vec3 {
        let d = sampling::isotropic_direction(rng);
        let sign = |v: f64| if v < 0.0 { -1.0 } else { 1.0 };
        match below(rng, 6) {
            0 => Vec3::new(sign(d.x), 0.0, 0.0),
            1 => Vec3::new(0.0, sign(d.y), 0.0),
            2 => Vec3::new(0.0, 0.0, sign(d.z)),
            3 => Vec3::new(d.x, d.y, 0.0),
            _ => d,
        }
    }

    #[test]
    fn grid_matches_linear_scan_on_random_box_sets() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x6B1D);
        let mut hits = 0;
        for set in 0..40 {
            let n = 1 + below(&mut rng, 300);
            let extent = Vec3::new(
                rng.gen_range(0.1..10.0),
                rng.gen_range(0.1..10.0),
                rng.gen_range(0.1..2.0),
            );
            let boxes = random_boxes(&mut rng, n, extent);
            let grid = BoxGrid::new(&boxes);
            assert_eq!(grid.len(), n, "set {set}");
            let around = Aabb::new(extent * -0.2, extent * 1.2);
            for _ in 0..2_500 {
                let origin = sampling::point_in_box(&mut rng, &around);
                hits += assert_same(&grid, &boxes, &Ray::new(origin, random_direction(&mut rng)));
            }
        }
        assert!(hits > 10_000, "the rays must actually hit boxes: {hits}");
    }

    #[test]
    fn grid_matches_linear_scan_from_inside_boxes() {
        // Origins inside (and on the faces of) a box, any direction — the
        // neutron secondaries' case.
        let mut rng = Xoshiro256pp::seed_from_u64(0x1A51DE);
        let boxes = random_boxes(&mut rng, 200, Vec3::new(4.0, 3.0, 1.0));
        let grid = BoxGrid::new(&boxes);
        let mut hits = 0;
        for _ in 0..50_000 {
            let b = boxes[below(&mut rng, boxes.len())];
            let (lo, hi) = (b.min_corner(), b.max_corner());
            let origin = match below(&mut rng, 3) {
                0 => Vec3::new(lo.x, rng.gen_range(lo.y..=hi.y), hi.z),
                1 => hi,
                _ => sampling::point_in_box(&mut rng, &b),
            };
            hits += assert_same(&grid, &boxes, &Ray::new(origin, random_direction(&mut rng)));
        }
        // Flat boxes and rays leaving through a face cut no chord, but the
        // bulk of these rays start inside a box.
        assert!(hits > 30_000, "{hits}");
    }

    #[test]
    fn grid_matches_linear_scan_along_bin_edges_and_box_faces() {
        // A mirrored tiling like an SRAM array, where box faces coincide
        // across cells, traced with axis-parallel and oblique rays whose
        // origins sit exactly on bin edges and box faces.
        let mut boxes = Vec::new();
        for row in 0..7 {
            for col in 0..5 {
                for k in 0..6 {
                    let x = if col % 2 == 0 {
                        0.1 + 0.12 * k as f64
                    } else {
                        0.78 - 0.12 * k as f64
                    };
                    let min = Vec3::new(col as f64 + x, row as f64 * 0.5 + 0.2, 0.0);
                    boxes.push(Aabb::from_min_size(min, Vec3::new(0.02, 0.1, 0.3)));
                }
            }
        }
        let grid = BoxGrid::new(&boxes);
        let edges = |axis: &GridAxis| -> Vec<f64> {
            (0..=axis.bins)
                .map(|k| axis.origin + k as f64 / axis.inv_width)
                .collect()
        };
        let (xs, ys) = (edges(&grid.x), edges(&grid.y));
        let faces: Vec<f64> = boxes
            .iter()
            .flat_map(|b| [b.min_corner().x, b.max_corner().x])
            .collect();
        let mut rng = Xoshiro256pp::seed_from_u64(0xED6E);
        let mut hits = 0;
        for _ in 0..60_000 {
            let pick = |rng: &mut Xoshiro256pp, v: &[f64]| v[below(rng, v.len())];
            let x = if below(&mut rng, 2) == 0 {
                pick(&mut rng, &xs)
            } else {
                pick(&mut rng, &faces)
            };
            let y = pick(&mut rng, &ys);
            let z = rng.gen_range(-0.1..0.5);
            hits += assert_same(
                &grid,
                &boxes,
                &Ray::new(Vec3::new(x, y, z), random_direction(&mut rng)),
            );
        }
        assert!(hits > 1_000, "{hits}");
    }

    #[test]
    fn grid_bins_degenerate_extents() {
        // All boxes on one line (zero y extent) or stacked in one column.
        let line: Vec<Aabb> = (0..20)
            .map(|i| Aabb::from_min_size(Vec3::new(i as f64, 0.0, 0.0), Vec3::new(0.5, 0.0, 1.0)))
            .collect();
        let stack: Vec<Aabb> = (0..20)
            .map(|i| Aabb::from_min_size(Vec3::new(0.0, 0.0, i as f64), Vec3::new(1.0, 1.0, 0.5)))
            .collect();
        let mut rng = Xoshiro256pp::seed_from_u64(0xDE6E);
        for boxes in [line, stack] {
            let grid = BoxGrid::new(&boxes);
            for _ in 0..5_000 {
                let origin = sampling::point_in_box(
                    &mut rng,
                    &Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(21.0, 2.0, 21.0)),
                );
                assert_same(&grid, &boxes, &Ray::new(origin, random_direction(&mut rng)));
            }
        }
    }
}
