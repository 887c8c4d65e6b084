"""Seeded corpus, query rotations and the brute-force answer oracle.

Everything the program under test receives is made here from the
workload seed: region-encoded ``Document`` trees for the corpus, XML text
for the documents the writer adds, and path strings.  The expected row
count of every path is computed once from the generated trees by
:func:`brute_force_count`, which walks parent pointers and shares no code
with the query engine.
"""

from dataclasses import dataclass
from random import Random

from repro.xmldata.dtd import AUCTION_DTD, CONFERENCE_DTD, DEPARTMENT_DTD
from repro.xmldata.generator import GeneratorConfig, XmlGenerator
from repro.xmldata.model import Document, Element, annotate_regions
from repro.xmldata.parser import serialize_document

# The generator settings of repro.workloads.datasets: nested Department
# data, indirectly recursive Auction data, flat Conference data.
DEPARTMENT = (DEPARTMENT_DTD, GeneratorConfig(mean_repeat=2.2,
                                              recursion_decay=0.72,
                                              max_depth=28))
AUCTION = (AUCTION_DTD, GeneratorConfig(mean_repeat=2.0,
                                        recursion_decay=0.75, max_depth=30))
CONFERENCE = (CONFERENCE_DTD, GeneratorConfig(mean_repeat=2.5))

#: High-match joins over the nested Department documents.
DENSE_QUERIES = ("//employee//name", "//employee/name",
                 "//employee[email]/name", "//employee/employee/name")
#: Selective joins over the small Auction documents.
SPARSE_QUERIES = ("//item/name", "//region//name", "//site//name",
                  "//description//text")
#: The sparse rotation.  The classes differ up to eightfold in cost, so
#: with one read of each the median would fall on the gap between the two
#: cheap and the two costly classes.  ``//region//name`` comes three times
#: and ``//item/name`` twice per cycle: the median falls in the upper part
#: of the region class and the 90th percentile inside the item class, the
#: two classes whose work the fixed item and region counts pin down.
SPARSE_ROTATION = SPARSE_QUERIES + ("//region//name",) * 2 + ("//item/name",)
#: The churn reader's rotation: the sparse set plus one path whose count
#: changes with every commit of the writer.
CHURN_QUERIES = SPARSE_QUERIES + ("//department/employee",)


@dataclass(frozen=True)
class Sizing:
    """Corpus and storage scale of one benchmark run."""

    department_docs: int = 3
    department_elements: int = 1200
    auction_docs: int = 2
    auction_items: int = 60
    items_per_region: int = 6
    conference_docs: int = 2
    conference_elements: int = 1200
    write_doc_elements: int = 60
    write_docs: int = 8
    page_size: int = 1024
    pool_pages: int = 64
    setups: int = 5


FULL = Sizing()


class Corpus:
    """The generated documents of one seed, with their expected counts."""

    def __init__(self, seed, sizing):
        rng = Random(seed)
        self.documents = []
        self.documents += _generate(rng, *DEPARTMENT,
                                    sizing.department_docs,
                                    sizing.department_elements)
        self.documents += _auction(rng, sizing.auction_docs,
                                   sizing.auction_items,
                                   sizing.items_per_region)
        self.documents += _generate(rng, *CONFERENCE,
                                    sizing.conference_docs,
                                    sizing.conference_elements)
        self.write_documents = [
            (serialize_document(document), document)
            for document in _generate(rng, *DEPARTMENT, sizing.write_docs,
                                      sizing.write_doc_elements)]
        self.rotation_rng = Random(rng.getrandbits(32))
        self.elements = sum(d.element_count() for d in self.documents)

    def rotation(self, queries):
        """The seeded order in which a workload cycles through ``queries``."""
        order = list(queries)
        self.rotation_rng.shuffle(order)
        return order

    def expected(self, queries, extra=()):
        """``{path: brute-force row count}`` over the corpus plus ``extra``
        documents."""
        documents = list(self.documents) + list(extra)
        return {path: sum(brute_force_count(d, path) for d in documents)
                for path in queries}


def _generate(rng, dtd, config, count, elements):
    """``count`` documents of ``elements`` elements each, give or take 1%.

    The generator stops at the first top-level unit past its target, and
    a unit of the recursive DTDs can be large.  So trees of ample size are
    generated and their top-level units dealt out to the documents in
    order, each document taking the next units that still fit.  Every
    document is then a valid instance of the DTD of the same size, and
    the work per seed stays level.
    """
    limit = elements + max(elements // 100, 5)
    units, sizes = [], []
    documents = []
    while len(documents) < count:
        root = Element(dtd.root_tag)
        size = 1
        for index, unit in enumerate(units):
            if unit is not None and size + sizes[index] <= limit:
                root.add_child(unit)
                units[index] = None
                size += sizes[index]
                if size >= elements:
                    break
        if size < elements:
            # Out of units that fit: return these and draw a fresh tree.
            for unit in root.children:
                units.append(unit)
                sizes.append(sum(1 for _ in unit.iter_subtree()))
            generator = XmlGenerator(dtd, config, seed=rng.getrandbits(32))
            for unit in generator.generate(
                    max(2 * count * elements, 1000)).root.children:
                units.append(unit)
                sizes.append(sum(1 for _ in unit.iter_subtree()))
            continue
        annotate_regions(root, text_numbers=config.text_numbers)
        documents.append(Document(root))
    return documents


def _auction(rng, count, items, per_region, largest=40):
    """``count`` Auction documents of ``items`` items each, in regions of
    ``per_region`` items.

    The selective joins read a few hundred elements whose number follows
    the item, region and description counts, and those swing widely
    between generated trees of one size.  So generated items of at most
    ``largest`` elements (the recursive descriptions have a long tail) are
    regrouped into fixed regions; each item keeps its generated shape.
    """
    dtd, config = AUCTION
    pool = []
    while len(pool) < count * items:
        generator = XmlGenerator(dtd, config, seed=rng.getrandbits(32))
        for region in generator.generate(count * items * 20).root.children:
            pool.extend(item for item in region.children
                        if sum(1 for _ in item.iter_subtree()) <= largest)
    documents = []
    for _ in range(count):
        root = Element(dtd.root_tag)
        for start in range(0, items, per_region):
            region = root.add_child(Element("region"))
            taken = min(per_region, items - start)
            for item in pool[:taken]:
                region.add_child(item)
            del pool[:taken]
        annotate_regions(root, text_numbers=config.text_numbers)
        documents.append(Document(root))
    return documents


# -- the oracle ---------------------------------------------------------------

def parse_steps(path):
    """``//a/b[c]//d`` -> ``[("//", "a", ()), ("/", "b", ("c",)), ...]``.

    Only the shapes the workloads use are accepted: child and descendant
    axes, tag names, and single-tag existence predicates.
    """
    steps = []
    position = 0
    while position < len(path):
        if path.startswith("//", position):
            axis, position = "//", position + 2
        elif path.startswith("/", position):
            axis, position = "/", position + 1
        else:
            raise ValueError("unsupported path %r" % path)
        end = position
        while end < len(path) and path[end] not in "/[":
            end += 1
        tag = path[position:end]
        predicates = []
        while end < len(path) and path[end] == "[":
            close = path.index("]", end)
            predicates.append(path[end + 1:close])
            end = close + 1
        if not tag or not all(p.isidentifier() for p in predicates):
            raise ValueError("unsupported path %r" % path)
        steps.append((axis, tag, tuple(predicates)))
        position = end
    return steps


def brute_force_count(document, path):
    """Distinct elements bound to the last step of ``path`` in ``document``."""
    steps = parse_steps(path)

    def matches(node, index):
        axis, tag, predicates = steps[index]
        if node.tag != tag:
            return False
        if any(not any(c.tag == p for c in node.children)
               for p in predicates):
            return False
        if index == 0:
            return axis == "//" or node.parent is None
        if axis == "/":
            return node.parent is not None and matches(node.parent,
                                                       index - 1)
        ancestor = node.parent
        while ancestor is not None:
            if matches(ancestor, index - 1):
                return True
            ancestor = ancestor.parent
        return False

    last = len(steps) - 1
    return sum(1 for node in document if matches(node, last))
