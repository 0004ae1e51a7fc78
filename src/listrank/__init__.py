"""Joint-context listwise reranker.

One causal forward pass encodes the query together with all candidate
documents; contextual embeddings are read at per-document marker tokens,
projected, and scored against the query embedding by cosine similarity.
Training combines a contrastive ranking loss with dispersive, dual-query
and augmentation-consistency objectives, optimized through LoRA adapters
and finished by linear checkpoint merging.
"""

from .autodiff import Tape, Tensor, backward, finite_diff_check
from .backbone import BackboneConfig, forward, init_weights
from .embedding import extract, project, score
from .evaluation import generate_synthetic_corpus, ndcg_at_k, recall_at_k
from .losses import TrainingBatch
from .model import RerankModel
from .prompt import Document, PromptLayout, RerankRequest, Vocabulary, build_prompt
from .reranker import RankedResult, rerank
from .trainer import StageConfig, TrainingExample, merge_models, train_stage

__version__ = "0.1.0"

__all__ = [
    "BackboneConfig", "Document", "PromptLayout", "RankedResult", "RerankModel",
    "RerankRequest", "StageConfig",
    "Tape", "Tensor", "TrainingBatch", "TrainingExample", "Vocabulary",
    "backward", "build_prompt", "extract", "finite_diff_check", "forward",
    "generate_synthetic_corpus", "init_weights", "merge_models", "ndcg_at_k",
    "project", "recall_at_k", "rerank", "score", "train_stage",
]
