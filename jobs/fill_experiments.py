"""Insert measured tables from results/*.csv into EXPERIMENTS.md.

Each ``<!-- XXX_MEASURED -->`` anchor stays in place as a section
anchor; only the markdown table right under it is rewritten, so the
prose around it survives and a second run changes nothing.
"""
from __future__ import annotations

import os
import re

import pandas as pd

from repro.samplers import ALL

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXP = os.path.join(HERE, "EXPERIMENTS.md")
RESULTS = os.path.join(HERE, "results")


def _md(df: pd.DataFrame) -> str:
    head = "| " + " | ".join(str(c) for c in df.columns) + " |"
    sep = "|" + "---|" * len(df.columns)
    rows = [
        "| " + " | ".join(str(v) for v in rec) + " |"
        for rec in df.itertuples(index=False)
    ]
    return "\n".join([head, sep, *rows])


def _grid_table(path: str) -> str:
    """A Table 3/4 grid; a Table-3 cell with ``<sampler>_lo``/``_hi``
    columns reads ``accuracy [lo, hi]``."""
    df = pd.read_csv(path)
    samplers = [s for s in ALL if s in df.columns]
    for s in samplers:
        if f"{s}_lo" in df.columns:
            df[s] = [
                f"{a:g} [{lo:g}, {hi:g}]"
                for a, lo, hi in zip(df[s], df[f"{s}_lo"], df[f"{s}_hi"])
            ]
    df = df[["Dataset", "Type", "Proportion"] + samplers]
    df["Proportion"] = (df["Proportion"] * 100).map(lambda p: f"{p:g}")
    order = {"node": 0, "edge": 1, "path": 2}
    dorder = {"MovieLens": 0, "DBLP": 1, "Yelp": 2}
    df = df.sort_values(
        ["Dataset", "Type"],
        key=lambda s: s.map(order) if s.name == "Type" else s.map(dorder),
    )
    return _md(df)


def fill(anchor: str, table_md: str, text: str) -> str:
    """``text`` with the table under ``<!-- anchor -->`` (the run of
    ``|`` lines after its blank lines, if any) replaced by ``table_md``."""
    tag = f"<!-- {anchor} -->"
    pattern = re.compile(re.escape(tag) + r"\n*((?:\|.*(?:\n|\Z))*)")
    return pattern.sub(
        lambda m: f"{tag}\n\n{table_md}\n" + ("" if m.group(1) else "\n"), text
    )


def main() -> None:
    text = open(EXP).read()
    t2 = os.path.join(RESULTS, "table2.csv")
    if os.path.exists(t2):
        df = pd.read_csv(t2)
        for c in ("Node", "Edge", "Path"):
            df[c] = df[c].round(4)
        text = fill("TABLE2_MEASURED", _md(df), text)
    t3 = os.path.join(RESULTS, "table3.csv")
    if os.path.exists(t3):
        text = fill("TABLE3_MEASURED", _grid_table(t3), text)
    t4 = os.path.join(RESULTS, "table4.csv")
    if os.path.exists(t4):
        text = fill("TABLE4_MEASURED", _grid_table(t4), text)
    pl = os.path.join(RESULTS, "path_length.csv")
    if os.path.exists(pl):
        df = pd.read_csv(pl)
        for c in ("Accuracy", "Lo", "Hi"):
            df[c] = df[c].round(2)
        df["Time"] = df["Time"].round(4)
        text = fill("PATHLEN_MEASURED", _md(df), text)
    open(EXP, "w").write(text)
    print("EXPERIMENTS.md updated")


if __name__ == "__main__":
    main()
