"""Signal processing on graphs with the adjacency matrix as the shift.

The shift A generalizes the time delay; its eigenbasis is the graph
Fourier basis, total variation against the normalized shift orders the
frequencies, polynomials in the normalized shift A/|lambda_max| are the
filters, and on top of that sit two pipelines: spectral anomaly detection
and label regularization.

Modules import numpy and the stdlib only, and no module imports scipy;
networkx is imported inside ``regular_graph``, its one caller, so a command
loads what it runs.  The classifier's conjugate gradients, their refusal
probe and the sweep's dense Cholesky are numpy's, and a cold spectral
radius is certified in numpy by a Collatz-Wielandt bracket around a
restarted Arnoldi estimate, or falls back to the dense
``eigvals``/``eigvalsh`` (see ``Graph.spectral_radius``).

``basis_cache`` keeps three kinds of entry in a per-user directory: parsed
edge lists, eigendecompositions and spectral radii.  rho has one home there,
its radius entry, which every cached path that needs rho reads
(``spectral._cached_radius``), so a warm command certifies no rho.
"""

from .graph import (
    Graph,
    GraphSignal,
    LabelSignal,
    build_knn_graph,
    euclidean,
    graph_shift,
    haversine_km,
    laplacian,
    normalize_shift,
)
from .spectral import (
    FrequencyOrdering,
    JordanChain,
    NearDefectiveError,
    SpectralBasis,
    Spectrum,
    decompose,
    dirichlet_form,
    gft,
    gradient,
    igft,
    laplacian_quadratic_form,
    laplacian_total_variation,
    local_variation,
    order_eigenvalues,
    order_frequencies,
    quadratic_form,
    seminorm,
    spectrum,
    total_variation,
    tv_of_chain_vector,
    validate_chain,
)
from .filtering import (
    FilterDesign,
    GraphFilter,
    TargetResponse,
    apply_filter,
    design_filter,
    design_ideal_filter,
    frequency_response,
    ideal_response,
)
from .applications import (
    Classification,
    ClassifierConfig,
    DetectionReport,
    DetectorConfig,
    SingularSystemError,
    SweepResult,
    classification_objective,
    classify,
    classify_with_misfit_budget,
    detect_malfunction,
    label_misfit,
    standard_alpha_grid,
    sweep_alpha,
)
from .generators import cycle_graph, path_graph, regular_graph, sbm_graph

__version__ = "0.1.0"
