"""Unit tests for the path-compressed LPM trie (repro.core.trie)."""

import random

import pytest

from repro.core.trie import PrefixTrie, prefix_mask
from repro.netsim.addresses import ip

from tests.callcount import calls


def net(dotted: str) -> int:
    return ip(dotted).value


class TestPrefixMask:
    def test_boundaries(self):
        assert prefix_mask(0) == 0
        assert prefix_mask(32) == 0xFFFFFFFF
        assert prefix_mask(8) == 0xFF000000
        assert prefix_mask(25) == 0xFFFFFF80

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            prefix_mask(33)
        with pytest.raises(ValueError):
            prefix_mask(-1)


class TestInsertGetRemove:
    def test_roundtrip(self):
        trie: PrefixTrie[str] = PrefixTrie()
        assert trie.insert(net("10.0.0.0"), 8, "wide") is None
        assert trie.get(net("10.0.0.0"), 8) == "wide"
        assert trie.get(net("10.0.0.0"), 9) is None
        assert len(trie) == 1

    def test_insert_replaces_and_returns_previous(self):
        trie: PrefixTrie[str] = PrefixTrie()
        trie.insert(net("10.0.0.0"), 8, "old")
        assert trie.insert(net("10.0.0.0"), 8, "new") == "old"
        assert trie.get(net("10.0.0.0"), 8) == "new"
        assert len(trie) == 1

    def test_remove_returns_value(self):
        trie: PrefixTrie[str] = PrefixTrie()
        trie.insert(net("10.0.0.0"), 8, "wide")
        assert trie.remove(net("10.0.0.0"), 8) == "wide"
        assert trie.remove(net("10.0.0.0"), 8) is None
        assert len(trie) == 0
        assert not trie

    def test_host_bits_rejected(self):
        trie: PrefixTrie[str] = PrefixTrie()
        with pytest.raises(ValueError):
            trie.insert(net("10.0.0.1"), 8, "x")
        with pytest.raises(ValueError):
            trie.get(net("10.0.0.1"), 24)

    def test_default_route(self):
        trie: PrefixTrie[str] = PrefixTrie()
        trie.insert(0, 0, "default")
        assert trie.lookup(net("203.0.113.7")) == (0, 0, "default")
        assert trie.remove(0, 0) == "default"
        assert trie.lookup(net("203.0.113.7")) is None

    def test_host_route(self):
        trie: PrefixTrie[str] = PrefixTrie()
        trie.insert(net("192.0.2.1"), 32, "host")
        assert trie.lookup(net("192.0.2.1")) == (net("192.0.2.1"), 32, "host")
        assert trie.lookup(net("192.0.2.2")) is None


class TestLPM:
    def make(self) -> PrefixTrie[str]:
        trie: PrefixTrie[str] = PrefixTrie()
        trie.insert(net("10.0.0.0"), 8, "wide")
        trie.insert(net("10.9.0.0"), 16, "narrow")
        trie.insert(net("10.9.1.0"), 24, "narrower")
        trie.insert(net("172.16.0.0"), 12, "other")
        return trie

    def test_longest_match_wins(self):
        trie = self.make()
        assert trie.lookup(net("10.9.1.7"))[2] == "narrower"
        assert trie.lookup(net("10.9.2.7"))[2] == "narrow"
        assert trie.lookup(net("10.8.2.7"))[2] == "wide"
        assert trie.lookup(net("172.17.0.1"))[2] == "other"
        assert trie.lookup(net("192.168.0.1")) is None

    def test_covering_chain_shortest_first(self):
        trie = self.make()
        chain = trie.covering(net("10.9.1.7"))
        assert [value for _, _, value in chain] == ["wide", "narrow", "narrower"]
        assert [plen for _, plen, _ in chain] == [8, 16, 24]

    def test_covers(self):
        trie = self.make()
        assert trie.covers(net("10.255.255.255"))
        assert not trie.covers(net("11.0.0.0"))

    def test_contains_is_exact_not_lpm(self):
        trie = self.make()
        assert (net("10.9.0.0"), 16) in trie
        assert (net("10.9.0.0"), 17) not in trie
        assert (net("10.10.0.0"), 16) not in trie

    def test_removing_mid_prefix_keeps_neighbors(self):
        trie = self.make()
        trie.remove(net("10.9.0.0"), 16)
        assert trie.lookup(net("10.9.1.7"))[2] == "narrower"
        assert trie.lookup(net("10.9.2.7"))[2] == "wide"


class TestStructure:
    def test_iteration_sorted(self):
        trie: PrefixTrie[int] = PrefixTrie()
        prefixes = [(net("192.0.2.0"), 24), (net("10.0.0.0"), 8),
                    (net("10.0.0.0"), 16), (net("172.16.4.0"), 22),
                    (net("10.128.0.0"), 9)]
        for index, (network, plen) in enumerate(prefixes):
            trie.insert(network, plen, index)
        seen = [(network, plen) for network, plen, _ in trie]
        assert seen == sorted(prefixes)

    def test_node_bound_after_churn(self):
        """Path compression + splice-on-remove: nodes stay <= 2n + 1."""
        trie: PrefixTrie[int] = PrefixTrie()
        keys = [(net(f"10.{i}.0.0") & prefix_mask(10 + i % 15), 10 + i % 15)
                for i in range(64)]
        inserted = set()
        for index, (network, plen) in enumerate(keys):
            trie.insert(network, plen, index)
            inserted.add((network, plen))
        for network, plen in sorted(inserted)[::2]:
            trie.remove(network, plen)
        assert trie.node_count() <= 2 * len(trie) + 1

    def test_generation_bumps_on_mutation_only(self):
        trie: PrefixTrie[str] = PrefixTrie()
        start = trie.generation
        trie.insert(net("10.0.0.0"), 8, "a")
        assert trie.generation == start + 1
        trie.lookup(net("10.1.2.3"))
        trie.covering(net("10.1.2.3"))
        assert trie.generation == start + 1
        trie.insert(net("10.0.0.0"), 8, "b")  # replace also bumps
        assert trie.generation == start + 2
        trie.remove(net("10.0.0.0"), 8)
        assert trie.generation == start + 3
        trie.remove(net("10.0.0.0"), 8)  # absent: no mutation
        assert trie.generation == start + 3


class TestCallBudget:
    """A walk is arithmetic on the nodes it passes: what it costs in calls
    is a small constant, not a multiple of its depth (three helper calls per
    node before — ~57 for the 19-node walks of a 20 000-host registry)."""

    @pytest.fixture(scope="class")
    def populated(self):
        """300 cloud-shaped prefixes and 20 000 host routes inside them."""
        rng = random.Random(2019)
        trie: PrefixTrie[int] = PrefixTrie()
        prefixes = []
        while len(prefixes) < 300:
            plen = rng.randrange(12, 25)
            network = rng.getrandbits(32) & prefix_mask(plen)
            if trie.insert(network, plen, len(prefixes)) is None:
                prefixes.append((network, plen))
        hosts = set()
        while len(hosts) < 20_000:
            network, plen = rng.choice(prefixes)
            hosts.add(network | rng.getrandbits(32 - plen))
        for host in sorted(hosts):
            trie.insert(host, 32, host)
        # probes: stored hosts few prefixes cover, down the deepest walks
        probes = sorted((host for host in rng.sample(sorted(hosts), 400)
                         if len(trie.covering(host)) <= 2),
                        key=lambda host: -self.depth(trie, host))[:40]
        assert min(self.depth(trie, host) for host in probes) >= 15
        return trie, probes

    @staticmethod
    def depth(trie, addr) -> int:
        """Nodes on the walk from the root to the stored /32 ``addr``."""
        node, nodes = trie._root, 1
        while node.plen < 32:
            node = node.right if (addr >> (31 - node.plen)) & 1 else node.left
            nodes += 1
        assert node.network == addr
        return nodes

    def test_reads_cost_a_constant(self, populated):
        trie, probes = populated
        for host in probes:
            # the sibling address (stored or not) walks exactly as deep
            for addr in (host, host ^ 1):
                assert calls(trie.lookup, addr) == 1
                assert calls(trie.covers, addr) == 1
                # one list.append per covering prefix, none per node
                assert calls(trie.covering, addr) == 1 + len(trie.covering(addr)) <= 3
                assert calls(trie.covering_fingerprint, addr) == calls(trie.covering, addr)
                assert calls(trie.get, addr, 32) <= 3
                assert calls(trie.__contains__, (addr, 32)) <= 3

    def test_writes_cost_a_constant(self, populated):
        trie, probes = populated
        for host in probes:
            assert calls(trie.touch, host, 32) <= 3
            assert calls(trie.remove, host, 32) <= 8
            assert calls(trie.remove, host, 32) <= 8  # absent now
            nodes = trie.node_count()
            assert calls(trie.insert, host, 32, host) <= 8 + trie.node_count() - nodes
            assert calls(trie.insert, host, 32, host) <= 8  # replace in place
        assert all(trie.get(host, 32) == host for host in probes)
