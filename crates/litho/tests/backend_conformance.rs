//! End-to-end check of the process-global pass switch (DESIGN.md §13): the
//! whole forward model prints bit-identically whichever pass
//! [`backend::set_backend`] selects. The passes themselves are compared
//! directly by the differential suite next to `conv.rs`; this is the only
//! test in its binary, so nothing else flips the switch under it.

use ldmo_geom::{Grid, Rect};
use ldmo_litho::backend::{self, BackendKind};
use ldmo_litho::{simulate_print, KernelBank, LithoConfig};

fn dense_contacts(w: usize, h: usize) -> Grid {
    let mut g = Grid::zeros(w, h);
    let mut y = 1i32;
    while (y as usize) + 2 < h {
        let mut x = 1i32;
        while (x as usize) + 2 < w {
            g.fill_rect(&Rect::new(x, y, x + 2, y + 2), 1.0);
            x += 5;
        }
        y += 5;
    }
    g
}

#[test]
fn full_print_is_bit_identical_across_backends() {
    // end-to-end: the entire forward model (kernel bank + resist), not
    // just one pass, agrees bitwise whichever pass the process selects
    let cfg = LithoConfig::default();
    let bank = KernelBank::paper_bank(&cfg);
    let mask = dense_contacts(96, 96);
    let prev = backend::backend_kind();
    let prints: Vec<Vec<u32>> = [BackendKind::Scalar, BackendKind::Simd]
        .into_iter()
        .map(|kind| {
            backend::set_backend(kind);
            let print = simulate_print(&mask, &bank, &cfg);
            print.as_slice().iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    backend::set_backend(prev);
    assert_eq!(
        prints[0], prints[1],
        "simd print diverged from scalar print"
    );
}
