"""Benchmark workloads: flat dsffs configs without a seed.

The seed comes from the command line; it changes the synthetic draw, the
client partition and the initial topology, never the shape. Every
workload trains with `workers: 1` (set on the command line, as `dsffs run
--workers 1` would), so one process does all the work in call order.
"""

WORKLOADS = {
    # The README desk study: the keys and values of
    # configs/synthetic_noisy.yaml (D=500, 100-50-2, 4 clients, Q=2, input
    # selection on), copied so that a later edit of that file does not
    # silently change the benchmark.
    "desk_noisy": {
        "dataset": "synthetic",
        "n_informative": 20,
        "n_noise": 480,
        "n_samples": 2000,
        "n_classes": 2,
        "hidden_dims": [100, 50],
        "sparsity": 0.8,
        "k_features": 30,
        "rounds": 60,
        "local_epochs": 2,
        "clients": 4,
        "dirichlet_alpha": 0.5,
        "lr": 0.02,
        "batch_size": 32,
    },
    # MNIST-shaped synthetic (784-200-200-10, 10 classes), nothing
    # downloaded. Input selection is off, so input_selector is bypassed and
    # layer 0 runs plain DST through dst_update; time goes to SGD.
    # separation 0.5 keeps accuracy off its ceiling, so a change to the
    # numerics shows in final_accuracy.
    "mnist_shape": {
        "dataset": "synthetic",
        "n_informative": 20,
        "n_noise": 764,
        "n_samples": 12000,
        "n_classes": 10,
        "separation": 0.5,
        "hidden_dims": [200, 200],
        "sparsity": 0.8,
        "k_features": 150,
        "rounds": 5,
        "local_epochs": 1,
        "clients": 4,
        "feature_selection": False,
        "lr": 0.02,
        "batch_size": 32,
    },
    # High-D, few-sample regime (D=5000, 50 informative, 2000 samples over
    # 10 clients) with the FedProx proximal term on. Input-layer topology
    # dominates; late in the schedule layer 0 cannot regrow to its target,
    # which the benchmark counts (input_selector.shortfall_events). zscore
    # normalization lets this shape learn within 5 rounds (with minmax it
    # stays at chance).
    "wide_input": {
        "dataset": "synthetic",
        "n_informative": 50,
        "n_noise": 4950,
        "n_samples": 2000,
        "n_classes": 2,
        "normalize": "zscore",
        "hidden_dims": [100, 50],
        "sparsity": 0.8,
        "k_features": 50,
        "rounds": 5,
        "local_epochs": 1,
        "clients": 10,
        "mu": 0.01,
        "lr": 0.02,
        "batch_size": 32,
    },
}
