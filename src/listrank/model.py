"""Model bundle: vocabulary + backbone + projector, saved as one checkpoint."""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import Tensor
from .backbone import BackboneConfig, init_weights, weight_shapes
from .checkpoint import load_checkpoint, save_checkpoint
from .embedding import ProjectorConfig, init_projector, projector_shapes
from .errors import ConfigError
from .prompt import Vocabulary


@dataclass
class RerankModel:
    vocab: Vocabulary
    backbone_config: BackboneConfig
    projector_config: ProjectorConfig
    weights: dict[str, Tensor]

    def __post_init__(self):
        if self.backbone_config.vocab_size != len(self.vocab):
            raise ConfigError(
                f"backbone vocab_size={self.backbone_config.vocab_size} does not "
                f"match vocabulary of {len(self.vocab)}"
            )
        if self.projector_config.d_in != self.backbone_config.d_hidden:
            raise ConfigError("projector d_in must equal backbone d_hidden")
        want = weight_shapes(self.backbone_config) | projector_shapes(self.projector_config)
        have = {name: t.shape for name, t in self.weights.items()}
        bad = sorted(n for n in want.keys() | have.keys() if have.get(n) != want.get(n))
        if bad:
            raise ConfigError("weights do not match the configs: " + ", ".join(
                f"{n} {have.get(n, 'missing')} (expected {want.get(n, 'none')})" for n in bad[:3]))

    @classmethod
    def create(
        cls,
        vocab: Vocabulary,
        backbone_config: BackboneConfig | None = None,
        projector_config: ProjectorConfig | None = None,
        seed: int = 0,
    ) -> "RerankModel":
        if backbone_config is None:
            backbone_config = BackboneConfig(vocab_size=len(vocab))
        if projector_config is None:
            d = backbone_config.d_hidden
            projector_config = ProjectorConfig(d_in=d, d_mid=max(d // 2, 1), d_out=max(d // 2, 1))
        weights = init_weights(backbone_config, seed)
        weights.update(init_projector(projector_config, seed + 1))
        return cls(vocab, backbone_config, projector_config, weights)

    def save(self, path) -> None:
        meta = {
            "kind": "rerank-model",
            "backbone": self.backbone_config.to_dict(),
            "projector": self.projector_config.to_dict(),
            "vocab": self.vocab.entries(),
        }
        save_checkpoint(path, self.weights, meta)

    @classmethod
    def load(cls, path) -> "RerankModel":
        tensors, meta = load_checkpoint(path)
        if meta.get("kind") != "rerank-model":
            raise ConfigError(f"{path} is not a rerank model bundle")
        missing = [key for key in ("vocab", "backbone", "projector") if key not in meta]
        if missing:
            raise ConfigError(f"{path}: bundle meta has no {', '.join(missing)}")
        return cls(
            vocab=Vocabulary.from_entries(meta["vocab"]),
            backbone_config=BackboneConfig.from_dict(meta["backbone"]),
            projector_config=ProjectorConfig.from_dict(meta["projector"]),
            weights={k: Tensor(v) for k, v in tensors.items()},
        )
