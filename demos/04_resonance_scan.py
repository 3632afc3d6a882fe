#!/usr/bin/env python3
"""Full scattering scan: unitary S(E), phase shifts, amplitude structure.

Runs the default scan (ell=1, g=2, lam=5, size 20, 8 coupling terms,
weight mu^(2 nu) e^(-mu^2), nu = 1..7, 551 energies in [0.5, 6]) through the
same code path as the command line front end (its rows come back as columns),
writes the CSV, and summarizes the |1 - S| structure per nu.  If matplotlib is
importable a PNG of the curves is saved next to the CSV.
"""

import numpy as np

from jmnl.scattering import ScanRequest, format_csv, run_scan
from jmnl.reference import BasisParams

request = ScanRequest(
    basis=BasisParams(lam=5.0, ell=1),
    g=2.0,
    size=20,
    terms=8,
    weight_choice="resonance",
    nu_list=tuple(float(v) for v in range(1, 8)),
    e_min=0.5,
    e_max=6.0,
    steps=551,
)

columns = run_scan(request)
with open("resonance_scan.csv", "w", encoding="utf-8", newline="") as handle:
    handle.write(format_csv(columns))
print(f"wrote resonance_scan.csv ({len(columns)} rows)")

ok = np.array(columns.status) == "ok"

print("\n== |1 - S| structure per nu")
print(f"   {'nu':>3} {'global max at E':>16} {'amp':>7} {'deepest dip at E':>17} {'amp':>9}")
for nu in request.nu_list:
    rows = ok & (columns.nu == nu)
    energies, amps = columns.energy[rows], columns.amplitude[rows]
    peak, dip = np.argmax(amps), np.argmin(amps)
    print(
        f"   {nu:>3g} {energies[peak]:>16.3f} {amps[peak]:>7.3f} "
        f"{energies[dip]:>17.3f} {amps[dip]:>9.5f}"
    )

print("\n== unitarity across the whole table")
worst = max(abs(abs(s_value) - 1.0) for s_value in columns.s_value[ok].tolist())
print(f"   max ||S| - 1| = {worst:.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(7.5, 4.5))
    for nu in request.nu_list:
        rows = ok & (columns.nu == nu)
        ax.plot(columns.energy[rows], columns.amplitude[rows], label=f"nu = {nu:g}", linewidth=1.1)
    ax.set_xlabel("E (atomic units)")
    ax.set_ylabel("|1 - S(E)|")
    ax.set_title("Scattering amplitude, quartic self-interaction model")
    ax.legend(ncol=2, fontsize=8)
    fig.tight_layout()
    fig.savefig("resonance_scan.png", dpi=150)
    print("\nwrote resonance_scan.png")
