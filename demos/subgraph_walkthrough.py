"""Walk through concept grounding and 2-hop subgraph extraction.

Builds a small knowledge graph, grounds the concepts mentioned in a sentence,
and prints the surrounding subgraph that the graph encoder would consume.
"""

from kgmoe.kg import KnowledgeGraph, extract_subgraph, ground_concepts
from kgmoe.pipeline import subgraph_json


def main():
    kg = KnowledgeGraph.from_triples([
        ("piano", "relatedto", "music"),
        ("piano", "usedfor", "play"),
        ("music", "relatedto", "song"),
        ("song", "createdby", "musician"),
        ("sport", "relatedto", "run"),
        ("kind", "relatedto", "type"),
        ("run", "hasproperty", "fast"),
    ])

    text = "piano is a kind of sport"
    print(f"input text: {text!r}\n")

    seeds = ground_concepts(text, kg)
    print("grounded concepts:", sorted(kg.concepts[c] for c in seeds))
    print("(matched by surface token with light stemming; 'is', 'a', 'of' are not"
          " knowledge-graph entries)\n")

    for hops in (1, 2):
        sub = extract_subgraph(seeds, kg, hops=hops)
        print(f"{hops}-hop neighborhood: "
              f"{sorted(kg.concepts[c] for c in sub.nodes)}")
    print()

    print("full JSON view (what the `kgmoe subgraph` subcommand prints):")
    print(subgraph_json(kg, text, hops=2))


if __name__ == "__main__":
    main()
