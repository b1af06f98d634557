"""Hong-Ou-Mandel coalescence at the beamsplitter.

Two indistinguishable photons entering a balanced beamsplitter on
opposite ports never exit on opposite ports: the two coincidence
amplitudes cancel to rounding, and the pair leaves bunched as the
entangled state (|2,0> + |0,2>)/sqrt2 (up to a phase).  This demo
evolves |1,1> through the beamsplitter, prints every output amplitude,
and contrasts the coincidence probability with the 1/2 expected for
distinguishable particles.

Run from the repository root:

    python3 demos/hong_ou_mandel.py
"""

from qlitho import beamsplitter, evolve, make_state


def main():
    pair = make_state({(1, 1): 1.0})
    out = evolve(pair, beamsplitter())

    print("input  |1,1>  ->  beamsplitter  ->")
    for (n, m), amp in sorted(out.amplitudes.items()):
        print(f"  |{n},{m}>  amplitude {amp.real:+.6f}{amp.imag:+.6f}i   "
              f"probability {abs(amp) ** 2:.6f}")

    coincidence = abs(out.amplitude(1, 1)) ** 2
    print(f"\ncoincidence probability (quantum)          : {coincidence:.2e}")
    # Distinguishable particles pick transmit/reflect independently:
    # P(opposite ports) = |t|^4 + |r|^4 = 1/4 + 1/4.
    print("coincidence probability (distinguishable)  : 0.50")
    print("\nthe pair always bunches -- this is the entangled source used for")
    print("double-frequency exposure (see demos/fringe_doubling.py)")


if __name__ == "__main__":
    main()
