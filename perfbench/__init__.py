"""perfbench: the repository's benchmark (see ``perfbench/README.md``).

Four workloads over the public deployment API, measured on two clocks:
*host* time (what the simulator costs us) and *simulated* time (what the
modelled MassBFT system would take). ``BENCHMARK.json`` at the repository
root is the contract; ``python3 -m perfbench`` is the one command.
"""
