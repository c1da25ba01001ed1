#!/usr/bin/env python3
"""Render the shuffle-network complexity comparison for the two headline
example codes and cross-check the crossbar counts against the switch bits
of a routed Benes network.
"""

from nbqc import BenesNetwork, CostParams, render_report, savings
from nbqc.cost import cost


def main() -> None:
    # 64-ary (1260, 630) rate-0.5 Class-I code: q=64, rho=20, gamma=10
    params1 = CostParams(b_q=6, n_m=16, d_c=4, q=64, gamma=10, rho=20)
    print("== 64-ary (1260, 630) Class-I parameters ==")
    print(render_report(params1))
    print()

    # 32-ary (992, 496) rate-0.5 Class-II code: q=32, rho=32, gamma=16
    params2 = CostParams(b_q=6, n_m=16, d_c=4, q=32, gamma=16, rho=32)
    print("== 32-ary (992, 496) Class-II parameters ==")
    print(render_report(params2))
    print()

    net = BenesNetwork(32)
    bits = net.route(range(32))  # one control bit per routed switch
    p3 = cost("P3", params2)
    print(f"Benes model: stages={net.num_stages} switches={net.num_switches}")
    print(f"P3 crossbar row matches routed network: {p3.lsn_crossbars == net.num_switches == bits.size}")
    w = savings(cost("P1", params1), cost("Ref5", params1))
    print(f"wires-only savings, P1 vs Ref5: {w:.4f}")
    print(f"configurable Class-II network reduction: 15/16 = {15 / 16:.4f}")


if __name__ == "__main__":
    main()
