"""Figure 3 reproduction: how a shortest path interacts with one hopset level.

The paper's Figure 3 shows an s-t path crossing several EST clusters:
the path's first and last vertices inside *large* clusters (u and v)
get replaced by three shortcut edges — star (u, c1), clique (c1, c2),
star (c2, v).  This example performs exactly that anatomy on a real
clustering: it walks an actual shortest path, marks which cluster each
path vertex belongs to, identifies the large-cluster segments, and
prints the three-edge replacement with its length distortion.

Run:  python examples/shortcut_anatomy.py
"""

import numpy as np

import repro
from repro.clustering import est_cluster
from repro.paths.engine import shortest_paths
from repro.paths.trees import extract_path, shortest_path_forest


def main() -> None:
    side = 40
    g = repro.grid_graph(side, side)
    s, t = 0, g.n - 1

    # one clustering level, beta chosen so clusters have ~10-hop radius
    beta = 0.1
    c = est_cluster(g, beta, seed=7, method="exact")
    rho = 8.0
    threshold = g.n / rho
    sizes = c.sizes
    large_labels = set(int(lab) for lab in np.flatnonzero(sizes >= threshold))

    dist = shortest_paths(g, s).dist
    parent, _ = shortest_path_forest(g, dist, s)
    path = extract_path(parent, t)
    labels = c.labels
    print(f"grid {side}x{side}; clustering: {c.num_clusters} clusters, "
          f"{len(large_labels)} large (>= {threshold:.0f} vertices)")
    print(f"s-t path: {len(path) - 1} hops\n")

    # --- segment the path by cluster, in the style of Figure 3 ---------
    segments = []
    start = 0
    for i in range(1, len(path) + 1):
        if i == len(path) or labels[path[i]] != labels[path[start]]:
            segments.append((start, i - 1, int(labels[path[start]])))
            start = i
    print(f"path crosses {len(segments)} cluster segments "
          f"(Cor 2.3 predicts ~beta*len = {beta * (len(path) - 1):.1f} cuts)")

    marks = "".join("L" if seg[2] in large_labels else "." for seg in segments)
    print(f"segment map (L = large cluster): {marks}\n")

    # --- the Figure 3 shortcut: first/last large-cluster touch ---------
    large_touches = [k for k, seg in enumerate(segments) if seg[2] in large_labels]
    if len(large_touches) >= 1:
        first = segments[large_touches[0]]
        last = segments[large_touches[-1]]
        u = path[first[0]]  # first path vertex in a large cluster
        v = path[last[1]]   # last path vertex in a large cluster
        c1 = int(c.center[u])
        c2 = int(c.center[v])
        skipped_hops = last[1] - first[0]
        star1 = float(c.dist_to_center[u])
        star2 = float(c.dist_to_center[v])
        d_c1 = shortest_paths(g, c1).dist
        clique = float(d_c1[c2])
        direct = float(dist[path[last[1]]] - dist[path[first[0]]])
        print("Figure 3 replacement:")
        print(f"  u = {u} (cluster center c1 = {c1}), v = {v} (center c2 = {c2})")
        print(f"  original sub-path:  {skipped_hops} hops, length {direct:.0f}")
        print(f"  shortcut u->c1->c2->v: 3 hops, length "
              f"{star1:.0f} + {clique:.0f} + {star2:.0f} = {star1 + clique + star2:.0f}")
        print(f"  additive distortion: {star1 + clique + star2 - direct:.0f} "
              f"(bounded by ~4x cluster radius = {4 * c.tree_radii().max():.0f})")
    else:
        print("path never touches a large cluster (rerun with another seed)")


if __name__ == "__main__":
    main()
