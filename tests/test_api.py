import importlib

import pauliflow

# The scalar coloring MDP and the one-coloring reward are not part of the
# package: the lockstep rollout in pauliflow.gflownet is its only MDP.
REMOVED = {
    "pauliflow": ("ColoringState", "Trajectory", "encode_state", "forward_policy",
                  "legal_actions", "reward", "sample_trajectory", "Grouping"),
    "pauliflow.gflownet": ("ColoringState", "Trajectory", "NoActionError", "encode_state",
                           "legal_actions", "forward_policy", "sample_trajectory",
                           "enumerate_terminal_assignments"),
    "pauliflow.measurement": ("reward", "EmptyGroupingError"),
    # a grouping is a Coloring; coloring_to_grouping gives its groups as plain tuples
    "pauliflow.graphs": ("Grouping",),
    # Hamiltonians are read from a path or from text, and parsed only by loads_hamiltonian
    "pauliflow.hamio": ("Source", "_read_text", "_parse_word"),
}

# The network takes no input vectors (the sampler adds rows of W0), Adam's
# rates and guard are module constants, and the one-norm is a test oracle.
REMOVED_ATTRIBUTES = {
    ("pauliflow.nn", "DenseNet"): ("forward", "backward", "_check_input", "n_parameters", "copy"),
    ("pauliflow.nn", "AdamState"): ("beta1", "beta2", "eps"),
    ("pauliflow.pauli", "QubitHamiltonian"): ("one_norm",),
}


def test_every_exported_name_imports():
    namespace = {}
    exec("from pauliflow import *", namespace)  # raises if a listed name is missing
    assert set(pauliflow.__all__) <= set(namespace)
    assert len(set(pauliflow.__all__)) == len(pauliflow.__all__) == 29


def test_removed_names_are_not_exported():
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(importlib.import_module(module), name), f"{module}.{name}"
    assert not set(REMOVED["pauliflow"]) & set(pauliflow.__all__)
    instances = {
        "DenseNet": pauliflow.DenseNet.initialize([2, 2]),
        "AdamState": pauliflow.AdamState(),
        "QubitHamiltonian": pauliflow.QubitHamiltonian(1),
    }
    for (module, cls), names in REMOVED_ATTRIBUTES.items():
        owner = getattr(importlib.import_module(module), cls)
        for name in names:
            assert not hasattr(owner, name), f"{module}.{cls}.{name}"
            assert not hasattr(instances[cls], name), f"{module}.{cls}().{name}"
