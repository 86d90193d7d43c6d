"""Container images: content-addressed layers and image references.

Layers are identified by digest; two images sharing a base layer share the
digest, so the image store deduplicates storage and pulls — the effect the
paper notes ("popular base layers ... might also be included in other cached
images and thus already be on disk", §VI).
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
from typing import Optional, Tuple

KIB = 1024
MIB = 1024 * 1024


def layer_digest(seed: str) -> str:
    """Deterministic sha256-style digest for a synthetic layer."""
    return "sha256:" + hashlib.sha256(seed.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ImageLayer:
    """One image layer (identified by digest, sized in bytes)."""

    digest: str
    size_bytes: int

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError("negative layer size")


@dataclass(frozen=True)
class ImageRef:
    """Parsed image reference: ``[registry/]repository[:tag]``."""

    registry: str  # "" means the default registry (Docker Hub)
    repository: str
    tag: str = "latest"

    def __str__(self) -> str:
        base = f"{self.registry}/{self.repository}" if self.registry else self.repository
        return f"{base}:{self.tag}"

    @property
    def name(self) -> str:
        """Reference without the registry part (repository:tag)."""
        return f"{self.repository}:{self.tag}"


def parse_image_ref(ref: str) -> ImageRef:
    """Parse ``nginx:1.23.2`` / ``gcr.io/tensorflow-serving/resnet`` /
    ``myreg.local:5000/foo:bar`` into an :class:`ImageRef`.

    A leading component counts as a registry when it contains a dot or a
    colon (host[:port]) — the same heuristic real container tooling uses.
    """
    if not ref:
        raise ValueError("empty image reference")
    registry = ""
    rest = ref
    head, sep, tail = ref.partition("/")
    if sep and ("." in head or ":" in head or head == "localhost"):
        registry, rest = head, tail
    if not rest:
        raise ValueError(f"malformed image reference {ref!r}")
    # Split the tag off the last path component only.
    if ":" in rest.rsplit("/", 1)[-1]:
        repository, _, tag = rest.rpartition(":")
    else:
        repository, tag = rest, "latest"
    if not repository:
        raise ValueError(f"malformed image reference {ref!r}")
    return ImageRef(registry=registry, repository=repository, tag=tag)


@dataclass(frozen=True)
class ContainerImage:
    """An image manifest: an ordered tuple of layers.

    ``app`` optionally names the service behaviour baked into the image
    (resolved against :data:`repro.edge.services.EDGE_SERVICE_CATALOG`).
    """

    ref: ImageRef
    layers: Tuple[ImageLayer, ...]
    app: Optional[str] = None

    @property
    def size_bytes(self) -> int:
        return sum(layer.size_bytes for layer in self.layers)

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    def __str__(self) -> str:
        return str(self.ref)


def make_image(
    ref: str,
    size_bytes: int,
    layer_count: int,
    app: Optional[str] = None,
    shared_base_of: Optional[ContainerImage] = None,
) -> ContainerImage:
    """Build a synthetic image of ``layer_count`` layers summing to
    ``size_bytes``.

    Layer sizes follow the common pattern of one large base layer plus
    smaller overlay layers. When ``shared_base_of`` is given, the first
    layer reuses that image's first layer (shared base image).
    """
    parsed = parse_image_ref(ref)
    if layer_count < 1:
        raise ValueError("images need at least one layer")
    layers: list[ImageLayer] = []
    remaining = size_bytes
    if shared_base_of is not None:
        base = shared_base_of.layers[0]
        layers.append(base)
        remaining -= base.size_bytes
        if remaining < 0:
            raise ValueError("shared base larger than requested image size")
        layer_count -= 1
    if layer_count > 0:
        # 60 % of the remaining bytes in the (next) base layer, the rest split
        # evenly — deterministic, roughly realistic.
        base_size = int(remaining * 0.6) if layer_count > 1 else remaining
        rest_each = (remaining - base_size) // max(1, layer_count - 1)
        for i in range(layer_count):
            if i == 0:
                size = base_size
            elif i == layer_count - 1:
                size = remaining - base_size - rest_each * (layer_count - 2)
            else:
                size = rest_each
            layers.append(ImageLayer(digest=layer_digest(f"{ref}#{i}"), size_bytes=size))
    image = ContainerImage(ref=parsed, layers=tuple(layers), app=app)
    if image.size_bytes != size_bytes:
        raise AssertionError("layer sizes do not sum to image size")
    return image
