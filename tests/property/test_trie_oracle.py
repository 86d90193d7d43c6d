"""Property tests: PrefixTrie vs. a brute-force dict oracle.

The oracle stores ``{(network, plen): value}`` and answers LPM queries by
scanning every stored prefix — O(n) per query, unarguably correct.  For ANY
interleaved sequence of inserts and removes the trie must agree with it on
exact gets, LPM lookups, covering chains, revalidation fingerprints,
membership, size, and iteration order.  This is the correctness contract the
registry and the zone map lean on.

The walks read two per-node fields derived from the prefix length (``mask``,
``shift``) instead of calling helpers, and ``remove`` prunes without a path
stack because a value-less node always has two children — so after *every*
step the structure itself is audited: derived fields, child placement, path
compression.
"""

from hypothesis import given, settings, strategies as st

from repro.core.trie import PrefixTrie, prefix_mask

plens = st.integers(min_value=0, max_value=32)
addrs = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def prefix_keys(draw):
    """A valid (network, plen) pair (host bits already masked off)."""
    plen = draw(plens)
    # Few distinct networks per length -> plenty of overlap/nesting.
    raw = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return (raw & prefix_mask(plen), plen)


@st.composite
def op_lists(draw):
    """insert/remove/touch steps.  Half the keys sit on the path of an earlier
    one — the same prefix, an ancestor, or a descendant — so replacement,
    removal of stored prefixes, splits at the target itself and nesting
    happen far more often than 32 random bits would let them."""
    steps = []
    for _ in range(draw(st.integers(min_value=0, max_value=60))):
        if steps and draw(st.booleans()):
            network, plen = draw(st.sampled_from(steps))[1]
            below = draw(addrs) & ~prefix_mask(plen)
            plen = draw(plens)
            key = ((network | below) & prefix_mask(plen), plen)
        else:
            key = draw(prefix_keys())
        steps.append((draw(st.sampled_from(["insert", "remove", "touch"])), key,
                      draw(st.integers(min_value=0, max_value=999))))
    return steps


ops = op_lists()


def oracle_lpm(store, addr):
    best = None
    for (network, plen), value in store.items():
        if addr & prefix_mask(plen) == network:
            if best is None or plen > best[1]:
                best = (network, plen, value)
    return best


def oracle_covering(store, addr):
    found = [(network, plen, value) for (network, plen), value in store.items()
             if addr & prefix_mask(plen) == network]
    return sorted(found, key=lambda item: item[1])


def assert_structure(trie, store):
    """What every walk assumes about the nodes it reads."""
    root = trie._root
    assert (root.network, root.plen) == (0, 0)
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        assert node.mask == prefix_mask(node.plen)
        assert node.shift == 31 - node.plen
        assert node.network & node.mask == node.network
        assert node.has_value == ((node.network, node.plen) in store)
        children = [(bit, child) for bit, child in enumerate((node.left, node.right))
                    if child is not None]
        for bit, child in children:
            # a child extends its parent's prefix on the side of its next bit
            assert child.plen > node.plen
            assert child.network & node.mask == node.network
            assert (child.network >> node.shift) & 1 == bit
            stack.append(child)
        if node is not root and not node.has_value:
            assert len(children) == 2  # else it should have been spliced out
    assert count == trie.node_count() <= 2 * len(trie) + 1


def apply_ops(op_list):
    """Run the steps on a trie and on the model; returns the trie, the
    model's ``{key: value}`` and its ``{key: stamp}``."""
    trie: PrefixTrie[int] = PrefixTrie()
    store = {}
    stamps = {}
    for op, key, value in op_list:
        network, plen = key
        generation = trie.generation
        if op == "insert":
            previous = trie.insert(network, plen, value)
            assert previous == store.get(key)
            store[key] = value
            changed = True
        elif op == "remove":
            removed = trie.remove(network, plen)
            assert removed == store.pop(key, None)
            stamps.pop(key, None)
            changed = removed is not None
        else:
            changed = trie.touch(network, plen)
            assert changed == (key in store)
        assert trie.generation == generation + changed
        if changed and key in store:
            stamps[key] = trie.generation
        assert_structure(trie, store)
    return trie, store, stamps


class TestTrieMatchesOracle:
    @given(ops, st.lists(addrs, min_size=1, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_lpm_and_covering(self, op_list, probes):
        trie, store, stamps = apply_ops(op_list)
        # Probe arbitrary addresses plus every stored network (the
        # interesting boundaries).
        for addr in probes + [network for network, _ in store]:
            assert trie.lookup(addr) == oracle_lpm(store, addr)
            covering = oracle_covering(store, addr)
            assert trie.covering(addr) == covering
            assert trie.covering_fingerprint(addr) == tuple(
                (network, plen, stamps[(network, plen)])
                for network, plen, _ in covering)
            assert trie.covers(addr) == (oracle_lpm(store, addr) is not None)

    @given(ops)
    @settings(max_examples=150, deadline=None)
    def test_exact_get_size_and_iteration(self, op_list):
        trie, store, _ = apply_ops(op_list)
        assert len(trie) == len(store)
        for key, value in store.items():
            assert trie.get(*key) == value
            assert key in trie
        for _, key, _ in op_list:
            if key not in store:
                assert trie.get(*key) is None
                assert key not in trie
        assert list(trie) == [(network, plen, store[(network, plen)])
                              for network, plen in sorted(store)]

    @given(ops)
    @settings(max_examples=100, deadline=None)
    def test_node_count_bound(self, op_list):
        """Path compression: at most 2n - 1 prefix nodes (+ the root)."""
        trie, store, _ = apply_ops(op_list)
        assert trie.node_count() <= max(1, 2 * len(store) + 1)

    @given(ops)
    @settings(max_examples=100, deadline=None)
    def test_generation_counts_mutations(self, op_list):
        trie: PrefixTrie[int] = PrefixTrie()
        store = {}
        mutations = 0
        for op, key, value in op_list:
            network, plen = key
            if op == "insert":
                trie.insert(network, plen, value)
                store[key] = value
                mutations += 1
            elif op == "remove":
                if trie.remove(network, plen) is not None:
                    mutations += 1
                store.pop(key, None)
            else:
                mutations += trie.touch(network, plen)
        assert trie.generation == mutations
