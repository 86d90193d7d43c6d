"""Unit tests for images, refs, and registries."""

import pytest

from repro.edge.images import KIB, MIB, ImageLayer, ImageRef, layer_digest, make_image, parse_image_ref
from repro.edge.registry import (
    DOCKER_HUB_TIMING,
    PRIVATE_LAN_TIMING,
    ImageNotFound,
    Registry,
    RegistryHub,
    RegistryTiming,
)


class TestImageRef:
    def test_simple_with_tag(self):
        ref = parse_image_ref("nginx:1.23.2")
        assert ref == ImageRef(registry="", repository="nginx", tag="1.23.2")
        assert str(ref) == "nginx:1.23.2"

    def test_default_tag_latest(self):
        ref = parse_image_ref("nginx")
        assert ref.tag == "latest"

    def test_registry_host_detected(self):
        ref = parse_image_ref("gcr.io/tensorflow-serving/resnet")
        assert ref.registry == "gcr.io"
        assert ref.repository == "tensorflow-serving/resnet"

    def test_user_repo_is_not_registry(self):
        ref = parse_image_ref("josefhammer/web-asm:amd64")
        assert ref.registry == ""
        assert ref.repository == "josefhammer/web-asm"
        assert ref.tag == "amd64"

    def test_registry_with_port(self):
        ref = parse_image_ref("myreg.local:5000/foo:bar")
        assert ref.registry == "myreg.local:5000"
        assert ref.repository == "foo"
        assert ref.tag == "bar"

    def test_localhost_registry(self):
        ref = parse_image_ref("localhost/foo")
        assert ref.registry == "localhost"

    def test_malformed_rejected(self):
        for bad in ["", "gcr.io/"]:
            with pytest.raises(ValueError):
                parse_image_ref(bad)

    def test_name_excludes_registry(self):
        assert parse_image_ref("gcr.io/a/b:1").name == "a/b:1"


class TestMakeImage:
    def test_sizes_and_layers(self):
        image = make_image("foo:1", size_bytes=100 * MIB, layer_count=5)
        assert image.size_bytes == 100 * MIB
        assert image.layer_count == 5

    def test_single_layer(self):
        image = make_image("tiny:1", size_bytes=int(6.18 * KIB), layer_count=1)
        assert image.layer_count == 1
        assert image.size_bytes == int(6.18 * KIB)

    def test_digests_deterministic_and_distinct(self):
        a = make_image("foo:1", 10 * MIB, 3)
        b = make_image("foo:1", 10 * MIB, 3)
        assert [l.digest for l in a.layers] == [l.digest for l in b.layers]
        c = make_image("bar:1", 10 * MIB, 3)
        assert a.layers[0].digest != c.layers[0].digest

    def test_shared_base_layer(self):
        base = make_image("base:1", 50 * MIB, 2)
        derived = make_image("derived:1", 80 * MIB, 4, shared_base_of=base)
        assert derived.layers[0] == base.layers[0]
        assert derived.size_bytes == 80 * MIB

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            make_image("x:1", 10, 0)

    def test_negative_layer_size_rejected(self):
        with pytest.raises(ValueError):
            ImageLayer(digest=layer_digest("x"), size_bytes=-1)


class TestRegistry:
    def make(self):
        registry = Registry("test", RegistryTiming(manifest_s=0.1, layer_rtt_s=0.01,
                                                   bandwidth_bps=1e8))
        image = make_image("nginx:1.23.2", 10 * MIB, 2)
        registry.push(image)
        return registry, image

    def test_manifest_lookup(self):
        registry, image = self.make()
        assert registry.manifest(parse_image_ref("nginx:1.23.2")) is image

    def test_missing_image_raises(self):
        registry, _ = self.make()
        with pytest.raises(ImageNotFound):
            registry.manifest(parse_image_ref("missing:1"))

    def test_layer_time_formula(self):
        registry, _ = self.make()
        t = registry.layer_time(1_000_000)
        assert t == pytest.approx(0.01 + 8_000_000 / 1e8)

    def test_private_faster_than_hub(self):
        size = 50 * MIB
        hub_time = (DOCKER_HUB_TIMING.manifest_s + DOCKER_HUB_TIMING.layer_rtt_s
                    + size * 8 / DOCKER_HUB_TIMING.bandwidth_bps)
        lan_time = (PRIVATE_LAN_TIMING.manifest_s + PRIVATE_LAN_TIMING.layer_rtt_s
                    + size * 8 / PRIVATE_LAN_TIMING.bandwidth_bps)
        assert lan_time < hub_time


class TestRegistryHub:
    def test_resolve_default_and_host(self):
        default = Registry("hub", DOCKER_HUB_TIMING)
        gcr = Registry("gcr", DOCKER_HUB_TIMING)
        hub = RegistryHub(default)
        hub.add("gcr.io", gcr)
        assert hub.resolve(parse_image_ref("nginx:1")) is default
        assert hub.resolve(parse_image_ref("gcr.io/x/y:1")) is gcr

    def test_unknown_host_raises(self):
        hub = RegistryHub(Registry("hub", DOCKER_HUB_TIMING))
        with pytest.raises(ImageNotFound):
            hub.resolve(parse_image_ref("quay.io/x:1"))

    def test_mirror_takes_precedence_when_it_has_the_image(self):
        default = Registry("hub", DOCKER_HUB_TIMING)
        mirror = Registry("lan", PRIVATE_LAN_TIMING)
        image = make_image("nginx:1", 5 * MIB, 1)
        default.push(image)
        mirror.push(image)
        hub = RegistryHub(default)
        assert hub.resolve(image.ref) is default
        hub.set_mirror(mirror)
        assert hub.resolve(image.ref) is mirror
        # mirror lacks other images -> falls through
        other = make_image("other:1", MIB, 1)
        default.push(other)
        assert hub.resolve(other.ref) is default
