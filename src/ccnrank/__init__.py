"""Next-response ranking for multi-turn dialogue.

Three architectures over a small gradient-checked numerics core:

  * a tied-weight dual LSTM encoder with a bilinear score,
  * a multi-frequency variant with separate high/low-band embeddings and
    common-word branches,
  * a cross-convolution network branch that pools pairwise word similarities.

Plus common-words-frequency rescoring, ensemble averaging, a Recall@k
evaluation harness, deterministic synthetic corpora, and a CLI
(``ccnrank --help``).
"""

from .corpus import (
    EvalInstance,
    SyntheticConfig,
    TrainInstance,
    generate_splits,
    generate_synthetic,
    load_eval,
    load_train,
    tokenize,
    write_eval,
    write_train,
)
from .evaluation import (
    RecallReport,
    ScoredCandidateSet,
    cwf_rescore,
    ensemble_scores,
    evaluate,
    rank_candidates,
    recall_at_k,
    tune_scale,
)
from .models import (
    ARCHITECTURES,
    ModelConfig,
    RankingModel,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import (
    ParameterSet,
    RmsProp,
    Tensor,
    backward,
    finite_diff_check,
    no_grad,
)
from .training import EpochReport, TrainConfig, train
from .vocab import (
    FrequencySplit,
    Vocabulary,
    build_vocab,
    common_words,
    cwf_score,
    encode,
    filter_rows,
    load_vocab,
    save_vocab,
    split_by_frequency,
)

__version__ = "0.1.0"
