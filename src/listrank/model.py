"""Model bundle: vocabulary + backbone + projector, saved as one checkpoint whose
meta holds only the vocabulary's added words and the backbone config."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .autodiff import Tensor
from .backbone import BackboneConfig, init_weights, weight_shapes
from .checkpoint import checkpoint_bytes, load_checkpoint, write_atomic
from .config import from_json_object
from .embedding import init_projector, projector_shapes
from .errors import ListrankError
from .prompt import Vocabulary


@dataclass
class RerankModel:
    vocab: Vocabulary
    backbone_config: BackboneConfig
    weights: dict[str, Tensor]

    def __post_init__(self):
        if self.backbone_config.vocab_size != len(self.vocab):
            raise ListrankError(
                f"backbone vocab_size={self.backbone_config.vocab_size} does not "
                f"match vocabulary of {len(self.vocab)}"
            )
        # each layer holds several tensors: refuse before building a table per layer
        if self.backbone_config.n_layers > len(self.weights):
            raise ListrankError(f"backbone declares {self.backbone_config.n_layers} layers but "
                                f"the bundle holds {len(self.weights)} tensors")
        want = (weight_shapes(self.backbone_config)
                | projector_shapes(self.backbone_config.d_hidden))
        have = {name: t.shape for name, t in self.weights.items()}
        bad = sorted(n for n in want.keys() | have.keys() if have.get(n) != want.get(n))
        if bad:
            raise ListrankError("weights do not match the configs: " + ", ".join(
                f"{n} {have.get(n, 'missing')} (expected {want.get(n, 'none')})" for n in bad[:3]))

    @classmethod
    def create(cls, vocab: Vocabulary, backbone_config: BackboneConfig | None = None,
               seed: int = 0) -> "RerankModel":
        if backbone_config is None:
            backbone_config = BackboneConfig(vocab_size=len(vocab))
        weights = init_weights(backbone_config, seed)
        weights.update(init_projector(backbone_config.d_hidden, seed + 1))
        return cls(vocab, backbone_config, weights)

    def meta(self) -> dict:
        """Everything but the weights, as the bundle stores it."""
        return {"kind": "rerank-model", "backbone": asdict(self.backbone_config),
                "vocab": self.vocab.words}

    def to_bytes(self) -> bytes:
        """The checkpoint file ``save`` writes."""
        return checkpoint_bytes({k: t.data for k, t in self.weights.items()}, self.meta())

    def save(self, path) -> None:
        write_atomic({path: self.to_bytes()})

    @classmethod
    def load(cls, path) -> "RerankModel":
        tensors, meta = load_checkpoint(path)
        if meta.get("kind") != "rerank-model":
            raise ListrankError(f"{path} is not a rerank model bundle")
        missing = [key for key in ("vocab", "backbone") if key not in meta]
        if missing:
            raise ListrankError(f"{path}: bundle meta has no {', '.join(missing)}")
        try:
            return cls(Vocabulary.from_words(meta["vocab"]),
                       from_json_object(BackboneConfig, meta["backbone"]),
                       {k: Tensor(v) for k, v in tensors.items()})
        except ListrankError as err:
            raise ListrankError(f"{path}: {err}") from None
