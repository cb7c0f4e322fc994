"""Fingerprint the outputs of the lattice search, to compare two checkouts.

Prints one SHA-256 over serialize_scenario(generate_world(seed)) for seeds
0-499 and one over repr(grid_oracle(s, r)) for the builtins at r = delta/2,
0.25, 0.3 and 0.7 and for seeds 0-49 at r = delta/2, plus the
iteration_ceiling of each builtin. Two checkouts agree when the printed
lines are equal. Run it against the source tree under test:

    PYTHONPATH=src python tools/lattice_parity.py
"""

import hashlib

from nspmr import BUILTIN_NAMES, builtin_scenario, generate_world, grid_oracle, iteration_ceiling, serialize_scenario


def main() -> None:
    worlds = hashlib.sha256()
    oracles = hashlib.sha256()
    for name in BUILTIN_NAMES:
        s = builtin_scenario(name)
        for r in (s.delta / 2, 0.25, 0.3, 0.7):
            oracles.update(f"{name} {r} {grid_oracle(s, r)!r}\n".encode())
    for seed in range(500):
        s = generate_world(seed)
        worlds.update(serialize_scenario(s).encode())
        if seed < 50:
            oracles.update(f"{seed} {grid_oracle(s, s.delta / 2)!r}\n".encode())
    print("worlds 0-499  ", worlds.hexdigest())
    print("oracles       ", oracles.hexdigest())
    print("ceilings      ", [iteration_ceiling(builtin_scenario(n)) for n in BUILTIN_NAMES])


if __name__ == "__main__":
    main()
