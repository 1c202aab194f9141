"""The 13 graph samplers of the paper (11 hypothesis-agnostic baselines
plus PHASE / PHASE_opt) in one registry, ``name -> Sampler(name,
sample)``. Importing this package registers all of them."""
from repro.samplers.base import SAMPLERS, Sampler, get_sampler  # noqa: F401
from repro.samplers import edge_samplers  # noqa: F401,E402
from repro.samplers import expansion_samplers  # noqa: F401,E402
from repro.samplers import node_samplers  # noqa: F401,E402
from repro.samplers import shortest_path  # noqa: F401,E402
from repro.samplers import walk_samplers  # noqa: F401,E402
from repro.core import phase  # noqa: F401,E402  (registers PHASE, PHASE_opt)

# The 12 columns of Tables 3/4, in the paper's order.
ALL = [
    "PHASE_opt", "RES", "RNS", "DBS", "SRW", "NBRW", "RWR", "MHRW",
    "ShortestPathS", "FrontierS", "FFS", "SBS",
]
AGNOSTIC = ALL[1:]
