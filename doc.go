// Package flint is a reproduction of "FLINT: A Platform for Federated
// Learning Integration" (MLSys 2023): a device-cloud collaborative FL
// platform that integrates with a centralized ML stack and provides the
// tooling to decide whether — and how — to move a production model to
// cross-device federated learning.
//
// The root package declares no API; it holds the repository-wide tests
// (golden transcripts, serving benchmarks). The subsystems live in
// internal/ and are called by their own names:
//
//   - real-world measurement: on-device benchmarks (Table 5, Fig 4),
//     availability traces and participation criteria (Table 1, Fig 2),
//     device population modeling (Fig 1);
//   - the proxy data generator: per-client partitions, their Table 2
//     statistics and the executor file layout (Table 2, Fig 5);
//   - the experimental framework: a virtual-clock leader/executor simulator
//     with synchronous FedAvg and asynchronous FedBuff (Table 3, Figs 7/8/10);
//   - resource forecasting (§3.5) and the decision workflow (Fig 9);
//   - privacy/security evaluation: FL-DP, the TEE aggregator's load,
//     poisoning and robust aggregation (§3.6).
//
// See examples/ for runnable entry points and DESIGN.md for the full system
// inventory.
package flint
