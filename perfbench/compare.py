"""Compare two benchmark records written by run.py under ``.bench_out/``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints every metric the two records share, with NEW / BASE. Records of
different workloads, input sizes or kernel backends are not comparable, and
the script refuses them with exit code 2.
"""

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.load(open(path, encoding="utf-8")) for path in argv)
    for key, where in (("workload", None), ("size", None), ("backend", "environment")):
        a = (base[where] if where else base)[key]
        b = (new[where] if where else new)[key]
        if a != b:
            print(f"compare: refusing records with different {key}: {a!r} vs {b!r}",
                  file=sys.stderr)
            return 2
    print(f"{base['workload']}: {argv[0]} (seed {base['seed']}) -> {argv[1]} (seed {new['seed']})")
    for name, old in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        value = new["metrics"][name]["value"]
        ratio = f"{value / old['value']:.4f}" if old["value"] else "-"
        print(f"  {name:<48} {old['value']:>14.6g} {value:>14.6g} {old['unit']:<12} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
