package kernels

// IRL sources for the paper's kernels, so the compiler pipeline (Section 4
// analysis, fission, codegen) can be exercised on the real loop shapes and
// cross-checked against the hand-wired Go kernels.

// EulerIRL is the euler flux sweep: three residual components updated
// through both columns of the edge array, reading the endpoint states —
// exactly the Figure 1 shape with a three-array reference group. All three
// residual arrays share the indirection set {ia(*,0), ia(*,1)}, so the
// compiler must place them in ONE reference group (no fission) and pack
// them as components of a single rotated array.
const EulerIRL = `
param num_edges, num_nodes
array ia[num_edges, 2] int
array w[num_edges]
array q1[num_nodes]
array q2[num_nodes]
array q3[num_nodes]
array r1[num_nodes]
array r2[num_nodes]
array r3[num_nodes]

loop i = 0, num_edges {
    a1 = 0.5 * (q1[ia[i, 0]] + q1[ia[i, 1]])
    j1 = q1[ia[i, 0]] - q1[ia[i, 1]]
    f1 = w[i] * (a1 * a1 * 0.25 + j1 * 0.75 + a1 * 0.5)
    a2 = 0.5 * (q2[ia[i, 0]] + q2[ia[i, 1]])
    j2 = q2[ia[i, 0]] - q2[ia[i, 1]]
    f2 = w[i] * (a2 * a2 * 0.25 + j2 * 0.75 + a2 * 0.5)
    a3 = 0.5 * (q3[ia[i, 0]] + q3[ia[i, 1]])
    j3 = q3[ia[i, 0]] - q3[ia[i, 1]]
    f3 = w[i] * (a3 * a3 * 0.25 + j3 * 0.75 + a3 * 0.5)
    r1[ia[i, 0]] += f1
    r1[ia[i, 1]] -= f1
    r2[ia[i, 0]] += f2
    r2[ia[i, 1]] -= f2
    r3[ia[i, 0]] += f3
    r3[ia[i, 1]] -= f3
}
`

// MVMIRL is sparse matrix-vector multiply in its reduction formulation:
// iterating over nonzeros, y[row[i]] accumulates a[i]*x[col[i]]. The
// compiler classifies y as a reduction through row(*) and x as an
// irregular read through col(*) — the dual of the paper's gather
// formulation (which rotates x); both compute the same y.
const MVMIRL = `
param nnz, n
array row[nnz] int
array col[nnz] int
array a[nnz]
array x[n]
array y[n]

loop i = 0, nnz {
    y[row[i]] += a[i] * x[col[i]]
}
`

// MinredIRL is a lightest-incident-edge sweep: best[v] ends up holding
// the minimum weight over the edges incident to node v. The first loop
// seeds best with a sentinel above every weight (min's identity is +inf,
// so unseeded elements would clamp everything to 0 — IRL019's finding);
// the second folds with min=, which the algebra engine licenses for
// rotation and tiling (min is associative, commutative and idempotent,
// and exact under reordering).
const MinredIRL = `
param num_edges, num_nodes
array e[num_edges] int
array w[num_edges]
array best[num_nodes]

loop j = 0, num_nodes {
    best[j] = 1000000
}

loop i = 0, num_edges {
    best[e[i]] min= w[i]
}
`

// MoldynIRL is the open-boundary Lennard-Jones force sweep (the periodic
// minimum-image correction needs control flow IRL deliberately lacks, so
// the IRL variant is the free-space force law; the paper's loop class has
// no conditionals either). Three force components, equal and opposite at
// both endpoints, one reference group.
const MoldynIRL = `
param num_inter, num_mol
array ia[num_inter, 2] int
array px[num_mol]
array py[num_mol]
array pz[num_mol]
array fx[num_mol]
array fy[num_mol]
array fz[num_mol]

loop i = 0, num_inter {
    dx = px[ia[i, 0]] - px[ia[i, 1]]
    dy = py[ia[i, 0]] - py[ia[i, 1]]
    dz = pz[ia[i, 0]] - pz[ia[i, 1]]
    r2 = dx * dx + dy * dy + dz * dz
    inv2 = 1 / r2
    inv6 = inv2 * inv2 * inv2
    s = 24 * inv2 * inv6 * (2 * inv6 - 1)
    fx[ia[i, 0]] += s * dx
    fx[ia[i, 1]] -= s * dx
    fy[ia[i, 0]] += s * dy
    fy[ia[i, 1]] -= s * dy
    fz[ia[i, 0]] += s * dz
    fz[ia[i, 1]] -= s * dz
}
`
