//! Shared helpers for the table/figure regeneration binaries and the
//! solver, engine and Monte Carlo gate binaries.

pub mod telemetry;

/// Formats a row of f64 values with a label for aligned console tables.
pub fn format_row(label: &str, values: &[f64], width: usize, precision: usize) -> String {
    let mut s = format!("{label:<8}");
    for v in values {
        s.push_str(&format!(" {v:>width$.precision$e}"));
    }
    s
}

/// Formats a row of integers.
pub fn format_int_row(label: &str, values: &[u64], width: usize) -> String {
    let mut s = format!("{label:<8}");
    for v in values {
        s.push_str(&format!(" {v:>width$}"));
    }
    s
}

/// Writes series data as CSV to the given writer.
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn write_csv<W: std::io::Write>(
    mut w: W,
    headers: &[&str],
    columns: &[&[f64]],
) -> std::io::Result<()> {
    writeln!(w, "{}", headers.join(","))?;
    let rows = columns.iter().map(|c| c.len()).min().unwrap_or(0);
    for r in 0..rows {
        let row: Vec<String> = columns.iter().map(|c| format!("{:.6e}", c[r])).collect();
        writeln!(w, "{}", row.join(","))?;
    }
    Ok(())
}

/// Prints a Figs. 5–7-style device figure: the three §III-B sweeps of the
/// HfO2 variant (per terminal) and the Vth / on-off summary for both
/// dielectrics, with paper values alongside.
pub fn print_device_figure(figure: &str, kind: fts_device::DeviceKind) {
    use fts_device::characterize::{characterize, id_vd, id_vg};
    use fts_device::{BiasCase, Device, Dielectric};

    let dev = Device::new(kind, Dielectric::HfO2);
    let vg_min = if kind == fts_device::DeviceKind::Junctionless {
        -6.0
    } else {
        0.0
    };
    println!("{figure}: {} device, DSSS case, HfO2 gate\n", kind.name());

    let print_sweep = |title: &str, sweep_name: &str, s: &fts_device::characterize::SweepResult| {
        println!("{title}");
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>12}",
            sweep_name, "I(T1) [A]", "I(T2) [A]", "I(T3) [A]", "I(T4) [A]"
        );
        let step = (s.sweep.len() / 11).max(1);
        for k in (0..s.sweep.len()).step_by(step) {
            println!(
                "{:>8.2} {:>12.4e} {:>12.4e} {:>12.4e} {:>12.4e}",
                s.sweep[k], s.currents[0][k], s.currents[1][k], s.currents[2][k], s.currents[3][k]
            );
        }
        println!();
    };

    print_sweep(
        "(a) Id-Vg at Vds = 10 mV",
        "Vgs [V]",
        &id_vg(&dev, BiasCase::DSSS, 0.01, vg_min, 5.0, 101),
    );
    print_sweep(
        "(b) Id-Vg at Vds = 5 V",
        "Vgs [V]",
        &id_vg(&dev, BiasCase::DSSS, 5.0, vg_min, 5.0, 101),
    );
    print_sweep(
        "(c) Id-Vd at Vgs = 5 V",
        "Vds [V]",
        &id_vd(&dev, BiasCase::DSSS, 5.0, 0.0, 5.0, 101),
    );

    println!("summary (paper values in brackets):");
    for d in Dielectric::all() {
        let r = characterize(&Device::new(kind, d));
        let t = fts_device::calibration::paper_targets(kind, d);
        println!(
            "  {:<5} Vth = {:>7.3} V [{:>5.2} V]   Ion/Ioff = {:>9.2e} [{:>7.0e}]   SS = {:>5.1} mV/dec",
            d.name(),
            r.vth,
            t.vth_v,
            r.on_off_ratio,
            t.on_off_ratio,
            r.swing_mv_per_dec
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_format() {
        assert!(format_row("x", &[1.0, 2.0], 10, 2).contains("1.00e0"));
        assert!(format_int_row("y", &[42], 6).contains("42"));
    }

    #[test]
    fn csv_round() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &["t", "v"], &[&[0.0, 1.0], &[5.0, 6.0]]).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("t,v\n"));
        assert_eq!(s.lines().count(), 3);
    }
}
