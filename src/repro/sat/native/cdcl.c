/* A small incremental CDCL SAT solver behind the IPASIR C API.
 *
 * This is the native solving lane of repro.sat (see repro/sat/native/
 * __init__.py, which compiles this file with the system C compiler and
 * loads it through repro.sat.ipasir).  It implements the same algorithm as
 * the pure-Python reference solver in repro/sat/solver.py, in C:
 *
 *   - two-watched-literal propagation with blocker literals; binary
 *     clauses live in per-literal implication lists outside the arena;
 *   - VSIDS decisions (binary heap) with phase saving;
 *   - first-UIP conflict analysis with recursive clause minimisation;
 *   - LBD-based deletion of learned clauses, Luby restarts;
 *   - solving under assumptions with exact failed-assumption cores
 *     (MiniSat's analyzeFinal): the core is empty exactly when the formula
 *     alone is unsatisfiable.
 *
 * There is no randomness and no choice depends on time or on addresses,
 * so the same call sequence always produces the same models and cores.
 *
 * Besides the IPASIR ABI (ipasir_init ... ipasir_set_terminate) it exports
 * three extensions that keep the per-call overhead of a ctypes binding off
 * the hot paths:
 *
 *   int    ipasirx_add_clauses(S, const int32_t *lits, size_t count)
 *          add every clause of a buffer of 0-terminated clauses;
 *   void   ipasirx_values(S, const int32_t *vars, size_t count, int8_t *out)
 *          out[i] = 1 if vars[i] is true in the last model, else 0;
 *   size_t ipasirx_stats(S, int64_t *out, size_t count)
 *          the cumulative counters, in the order of the S_* enum below.
 *
 * Literals are DIMACS integers outside and 2*var + sign inside (sign 1 =
 * negative), so a literal's negation is lit ^ 1.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define CREF_NONE UINT32_MAX
/* A binary-clause reason or conflict: the flag plus the clause's other
 * (false) literal. */
#define REASON_BIN 0x80000000u
#define CONFLICT_BIN (CREF_NONE - 1)

/* Clause header words in the arena, followed by the literals. */
#define HDR 3
#define H_SIZE 0
#define H_FLAGS 1 /* bit 0 learned, bit 1 deleted, bits 8.. LBD */
#define H_ACT 2   /* float activity (learned), forwarding cref during GC */
#define F_LEARNED 1u
#define F_DELETED 2u

#define RESTART_UNIT 100
#define POLL_CONFLICTS 255 /* poll the terminate hook every 256 conflicts */
#define POLL_DECISIONS 4095

enum { S_DECISIONS, S_PROPAGATIONS, S_CONFLICTS, S_RESTARTS, S_LEARNED,
       S_DELETED, S_MAX_LEVEL, NSTATS };

typedef struct { int32_t *data; uint32_t size, cap; } Vec;
typedef struct { uint32_t cref; int32_t blocker; } Watch;
typedef struct { Watch *data; uint32_t size, cap; } WatchVec;

typedef struct {
    int nvars, cap;
    int8_t *vals;       /* per literal: 1 true, -1 false, 0 unassigned */
    int32_t *level;     /* per variable */
    uint32_t *reason;   /* per variable: cref, REASON_BIN|lit or CREF_NONE */
    double *activity;   /* per variable */
    uint8_t *phase;     /* per variable: saved polarity, 1 = positive */
    uint8_t *seen;      /* per variable: analysis scratch */
    int8_t *model;      /* per variable: last model, 1 true / -1 false */
    uint8_t *failed;    /* per literal: in the last failed-assumption core */
    uint32_t *stamp;    /* per decision level: LBD computation */
    uint32_t stamp_cap; /* levels can outnumber variables (empty
                         * levels of already-true assumptions) */
    WatchVec *watches;  /* per literal: long clauses watching its negation */
    Vec *bins;          /* per literal: literals implied when it is true */
    int32_t *heap, *heap_pos;
    int heap_size;

    int32_t *trail;
    int trail_size, qhead;
    Vec trail_lim;

    uint32_t *arena;
    size_t arena_size, arena_cap, wasted;
    Vec learnts;        /* crefs of learned long clauses */
    size_t num_clauses; /* original clauses of size >= 2 */

    Vec adding, assumptions, core, learnt, stack, toclear;
    int32_t bin_conflict[2];
    int ok, has_model;
    uint32_t stamp_counter;
    double var_inc, cla_inc;
    size_t max_learnts;
    int64_t stats[NSTATS];
    int (*terminate)(void *);
    void *terminate_data;
} Solver;

/* ---------------------------------------------------------------- memory */

static void *xrealloc(void *ptr, size_t bytes) {
    void *out = realloc(ptr, bytes ? bytes : 1);
    if (!out) {
        fputs("cdcl: out of memory\n", stderr);
        abort();
    }
    return out;
}

static void vec_push(Vec *v, int32_t x) {
    if (v->size == v->cap) {
        v->cap = v->cap ? 2 * v->cap : 8;
        v->data = (int32_t *)xrealloc(v->data, v->cap * sizeof(int32_t));
    }
    v->data[v->size++] = x;
}

static void watch_push(WatchVec *v, uint32_t cref, int32_t blocker) {
    if (v->size == v->cap) {
        v->cap = v->cap ? 2 * v->cap : 4;
        v->data = (Watch *)xrealloc(v->data, v->cap * sizeof(Watch));
    }
    v->data[v->size].cref = cref;
    v->data[v->size].blocker = blocker;
    v->size++;
}

static inline int var_of(int32_t lit) { return lit >> 1; }

static inline int32_t to_internal(int32_t lit) {
    return lit > 0 ? 2 * lit : 2 * -lit + 1;
}

static inline int decision_level(const Solver *s) {
    return (int)s->trail_lim.size;
}

/* -------------------------------------------------------------- the heap */

static inline int heap_before(const Solver *s, int a, int b) {
    /* Most active first; ties toward the higher variable number. */
    double x = s->activity[a], y = s->activity[b];
    return x > y || (x == y && a > b);
}

static void heap_up(Solver *s, int i) {
    int var = s->heap[i];
    while (i > 0) {
        int parent = (i - 1) >> 1;
        if (!heap_before(s, var, s->heap[parent]))
            break;
        s->heap[i] = s->heap[parent];
        s->heap_pos[s->heap[i]] = i;
        i = parent;
    }
    s->heap[i] = var;
    s->heap_pos[var] = i;
}

static void heap_down(Solver *s, int i) {
    int var = s->heap[i];
    for (;;) {
        int child = 2 * i + 1;
        if (child >= s->heap_size)
            break;
        if (child + 1 < s->heap_size
            && heap_before(s, s->heap[child + 1], s->heap[child]))
            child++;
        if (!heap_before(s, s->heap[child], var))
            break;
        s->heap[i] = s->heap[child];
        s->heap_pos[s->heap[i]] = i;
        i = child;
    }
    s->heap[i] = var;
    s->heap_pos[var] = i;
}

static void heap_insert(Solver *s, int var) {
    if (s->heap_pos[var] >= 0)
        return;
    s->heap[s->heap_size] = var;
    s->heap_pos[var] = s->heap_size++;
    heap_up(s, s->heap_size - 1);
}

static int heap_pop(Solver *s) {
    int top = s->heap[0];
    s->heap_pos[top] = -1;
    if (--s->heap_size > 0) {
        s->heap[0] = s->heap[s->heap_size];
        s->heap_pos[s->heap[0]] = 0;
        heap_down(s, 0);
    }
    return top;
}

/* ------------------------------------------------------------- variables */

static void grow_vars(Solver *s, int nvars) {
    if (nvars <= s->nvars)
        return;
    if (nvars >= s->cap) {
        int cap = s->cap ? s->cap : 64;
        while (cap <= nvars)
            cap *= 2;
        size_t v = (size_t)cap + 1, l = 2 * v;
        s->vals = (int8_t *)xrealloc(s->vals, l);
        s->failed = (uint8_t *)xrealloc(s->failed, l);
        s->watches = (WatchVec *)xrealloc(s->watches, l * sizeof(WatchVec));
        s->bins = (Vec *)xrealloc(s->bins, l * sizeof(Vec));
        s->level = (int32_t *)xrealloc(s->level, v * sizeof(int32_t));
        s->reason = (uint32_t *)xrealloc(s->reason, v * sizeof(uint32_t));
        s->activity = (double *)xrealloc(s->activity, v * sizeof(double));
        s->phase = (uint8_t *)xrealloc(s->phase, v);
        s->seen = (uint8_t *)xrealloc(s->seen, v);
        s->model = (int8_t *)xrealloc(s->model, v);
        s->heap = (int32_t *)xrealloc(s->heap, v * sizeof(int32_t));
        s->heap_pos = (int32_t *)xrealloc(s->heap_pos, v * sizeof(int32_t));
        s->trail = (int32_t *)xrealloc(s->trail, v * sizeof(int32_t));
        s->cap = cap;
    }
    for (int var = s->nvars + 1; var <= nvars; var++) {
        for (int lit = 2 * var; lit <= 2 * var + 1; lit++) {
            s->vals[lit] = 0;
            s->failed[lit] = 0;
            memset(&s->watches[lit], 0, sizeof(WatchVec));
            memset(&s->bins[lit], 0, sizeof(Vec));
        }
        s->level[var] = 0;
        s->reason[var] = CREF_NONE;
        s->activity[var] = 0.0;
        s->phase[var] = 0;
        s->seen[var] = 0;
        s->model[var] = 0;
        s->heap_pos[var] = -1;
    }
    int first = s->nvars + 1;
    s->nvars = nvars;
    for (int var = first; var <= nvars; var++)
        heap_insert(s, var);
}

static void bump_var(Solver *s, int var) {
    if ((s->activity[var] += s->var_inc) > 1e100) {
        for (int v = 1; v <= s->nvars; v++)
            s->activity[v] *= 1e-100;
        s->var_inc *= 1e-100;
    }
    if (s->heap_pos[var] >= 0)
        heap_up(s, s->heap_pos[var]);
}

/* --------------------------------------------------------------- clauses */

static inline int32_t *clause_lits(const Solver *s, uint32_t cref) {
    return (int32_t *)(s->arena + cref + HDR);
}

static inline float clause_act(const Solver *s, uint32_t cref) {
    float act;
    memcpy(&act, &s->arena[cref + H_ACT], sizeof act);
    return act;
}

static inline void set_clause_act(Solver *s, uint32_t cref, float act) {
    memcpy(&s->arena[cref + H_ACT], &act, sizeof act);
}

static uint32_t alloc_clause(Solver *s, const int32_t *lits, uint32_t size,
                             int learned, uint32_t lbd) {
    size_t need = s->arena_size + HDR + size;
    if (need >= REASON_BIN) {
        fputs("cdcl: clause arena exhausted\n", stderr);
        abort();
    }
    if (need > s->arena_cap) {
        size_t cap = s->arena_cap ? s->arena_cap : 1024;
        while (cap < need)
            cap *= 2;
        s->arena = (uint32_t *)xrealloc(s->arena, cap * sizeof(uint32_t));
        s->arena_cap = cap;
    }
    uint32_t cref = (uint32_t)s->arena_size;
    s->arena[cref + H_SIZE] = size;
    s->arena[cref + H_FLAGS] = (learned ? F_LEARNED : 0) | (lbd << 8);
    set_clause_act(s, cref, 0.0f);
    memcpy(clause_lits(s, cref), lits, size * sizeof(int32_t));
    s->arena_size = need;
    return cref;
}

static void attach(Solver *s, uint32_t cref) {
    int32_t *c = clause_lits(s, cref);
    watch_push(&s->watches[c[0] ^ 1], cref, c[1]);
    watch_push(&s->watches[c[1] ^ 1], cref, c[0]);
}

static void add_binary(Solver *s, int32_t a, int32_t b) {
    vec_push(&s->bins[a ^ 1], b);
    vec_push(&s->bins[b ^ 1], a);
}

static inline void enqueue(Solver *s, int32_t lit, uint32_t reason) {
    int var = var_of(lit);
    s->vals[lit] = 1;
    s->vals[lit ^ 1] = -1;
    s->level[var] = decision_level(s);
    s->reason[var] = reason;
    s->trail[s->trail_size++] = lit;
}

static void backtrack(Solver *s, int level) {
    if (decision_level(s) <= level)
        return;
    int bottom = s->trail_lim.data[level];
    for (int i = s->trail_size - 1; i >= bottom; i--) {
        int32_t lit = s->trail[i];
        int var = var_of(lit);
        s->vals[lit] = 0;
        s->vals[lit ^ 1] = 0;
        s->phase[var] = !(lit & 1);
        heap_insert(s, var);
    }
    s->trail_size = s->qhead = bottom;
    s->trail_lim.size = (uint32_t)level;
}

static int compare_ints(const void *a, const void *b) {
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* Add the clause in s->adding (internal literals) at decision level 0. */
static void add_pending_clause(Solver *s) {
    int32_t *lits = s->adding.data;
    uint32_t n = s->adding.size;
    s->adding.size = 0;
    if (!s->ok)
        return;
    if (n < 16) {
        for (uint32_t i = 1; i < n; i++) {
            int32_t x = lits[i];
            uint32_t j = i;
            for (; j > 0 && lits[j - 1] > x; j--)
                lits[j] = lits[j - 1];
            lits[j] = x;
        }
    } else {
        qsort(lits, n, sizeof(int32_t), compare_ints);
    }
    /* Drop duplicates and root-false literals; skip tautologies and
     * clauses satisfied at the root (every assignment is a root fact
     * between solves). */
    uint32_t kept = 0;
    for (uint32_t i = 0; i < n; i++) {
        int32_t lit = lits[i];
        if (kept && lits[kept - 1] == lit)
            continue;
        if (kept && lits[kept - 1] == (lit ^ 1))
            return;
        if (s->vals[lit] == 1)
            return;
        if (s->vals[lit] == -1)
            continue;
        lits[kept++] = lit;
    }
    if (kept == 0) {
        s->ok = 0;
    } else if (kept == 1) {
        enqueue(s, lits[0], CREF_NONE);
    } else if (kept == 2) {
        add_binary(s, lits[0], lits[1]);
        s->num_clauses++;
    } else {
        attach(s, alloc_clause(s, lits, kept, 0, 0));
        s->num_clauses++;
    }
}

static void add_literal(Solver *s, int32_t lit) {
    if (lit == 0) {
        backtrack(s, 0);
        add_pending_clause(s);
        return;
    }
    int var = lit > 0 ? lit : -lit;
    grow_vars(s, var);
    vec_push(&s->adding, to_internal(lit));
}

/* ----------------------------------------------------------- propagation */

/* Returns CREF_NONE, a conflicting clause, or CONFLICT_BIN (the two false
 * literals are then in s->bin_conflict). */
static uint32_t propagate(Solver *s) {
    int8_t *vals = s->vals;
    uint32_t conflict = CREF_NONE;
    while (s->qhead < s->trail_size) {
        int32_t p = s->trail[s->qhead++];
        int32_t false_lit = p ^ 1;
        s->stats[S_PROPAGATIONS]++;

        Vec *implied = &s->bins[p];
        for (uint32_t k = 0; k < implied->size; k++) {
            int32_t q = implied->data[k];
            if (vals[q] == 1)
                continue;
            if (vals[q] == -1) {
                s->bin_conflict[0] = q;
                s->bin_conflict[1] = false_lit;
                s->qhead = s->trail_size;
                return CONFLICT_BIN;
            }
            enqueue(s, q, REASON_BIN | (uint32_t)false_lit);
        }

        WatchVec *ws = &s->watches[p];
        Watch *i = ws->data, *j = ws->data, *end = ws->data + ws->size;
        while (i != end) {
            if (vals[i->blocker] == 1) {
                *j++ = *i++;
                continue;
            }
            uint32_t cref = i->cref;
            int32_t *c = clause_lits(s, cref);
            if (c[0] == false_lit) {
                c[0] = c[1];
                c[1] = false_lit;
            }
            i++;
            int32_t first = c[0];
            if (vals[first] == 1) {
                j->cref = cref;
                j->blocker = first;
                j++;
                continue;
            }
            uint32_t size = s->arena[cref + H_SIZE];
            uint32_t k = 2;
            for (; k < size; k++) {
                if (vals[c[k]] != -1) {
                    c[1] = c[k];
                    c[k] = false_lit;
                    watch_push(&s->watches[c[1] ^ 1], cref, first);
                    break;
                }
            }
            if (k < size)
                continue;
            j->cref = cref;
            j->blocker = first;
            j++;
            if (vals[first] == -1) {
                conflict = cref;
                s->qhead = s->trail_size;
                while (i != end)
                    *j++ = *i++;
            } else {
                enqueue(s, first, cref);
            }
        }
        ws->size = (uint32_t)(j - ws->data);
        if (conflict != CREF_NONE)
            break;
    }
    return conflict;
}

/* ------------------------------------------------------ conflict analysis */

/* The literals of a reason other than the implied one, and of a conflict:
 * a clause (skipping slot 0 for reasons) or one binary partner. */
static const int32_t *reason_lits(Solver *s, uint32_t reason, int32_t *one,
                                  uint32_t *count) {
    if (reason & REASON_BIN) {
        *one = (int32_t)(reason & ~REASON_BIN);
        *count = 1;
        return one;
    }
    *count = s->arena[reason + H_SIZE] - 1;
    return clause_lits(s, reason) + 1;
}

static uint32_t abstract_level(const Solver *s, int var) {
    return 1u << (s->level[var] & 31);
}

/* Is `lit` (false, in the learned clause) implied by the other learned
 * literals?  MiniSat's recursive minimisation. */
static int lit_redundant(Solver *s, int32_t lit, uint32_t levels) {
    s->stack.size = 0;
    vec_push(&s->stack, lit);
    uint32_t top = s->toclear.size;
    while (s->stack.size > 0) {
        int32_t q = s->stack.data[--s->stack.size];
        int32_t one;
        uint32_t count;
        const int32_t *lits = reason_lits(s, s->reason[var_of(q)], &one,
                                          &count);
        for (uint32_t k = 0; k < count; k++) {
            int var = var_of(lits[k]);
            if (s->seen[var] || s->level[var] == 0)
                continue;
            if (s->reason[var] != CREF_NONE
                && (abstract_level(s, var) & levels) != 0) {
                s->seen[var] = 1;
                vec_push(&s->stack, lits[k]);
                vec_push(&s->toclear, lits[k]);
            } else {
                for (uint32_t m = top; m < s->toclear.size; m++)
                    s->seen[var_of(s->toclear.data[m])] = 0;
                s->toclear.size = top;
                return 0;
            }
        }
    }
    return 1;
}

static void bump_clause(Solver *s, uint32_t cref) {
    float act = clause_act(s, cref) + (float)s->cla_inc;
    set_clause_act(s, cref, act);
    if (act > 1e20f) {
        for (uint32_t k = 0; k < s->learnts.size; k++) {
            uint32_t c = (uint32_t)s->learnts.data[k];
            set_clause_act(s, c, clause_act(s, c) * 1e-20f);
        }
        s->cla_inc *= 1e-20;
    }
}

/* First-UIP learning into s->learnt (asserting literal first, a literal
 * of the backtrack level second); returns the backtrack level. */
static int analyze(Solver *s, uint32_t conflict) {
    Vec *out = &s->learnt;
    out->size = 0;
    vec_push(out, 0);
    int current = decision_level(s);
    int pending = 0, index = s->trail_size - 1;
    int32_t p = 0;
    const int32_t *lits;
    uint32_t count;
    int32_t one;
    if (conflict == CONFLICT_BIN) {
        lits = s->bin_conflict;
        count = 2;
    } else {
        if (s->arena[conflict + H_FLAGS] & F_LEARNED)
            bump_clause(s, conflict);
        lits = clause_lits(s, conflict);
        count = s->arena[conflict + H_SIZE];
    }
    for (;;) {
        for (uint32_t k = 0; k < count; k++) {
            int var = var_of(lits[k]);
            if (s->seen[var] || s->level[var] == 0)
                continue;
            s->seen[var] = 1;
            bump_var(s, var);
            if (s->level[var] >= current)
                pending++;
            else
                vec_push(out, lits[k]);
        }
        while (!s->seen[var_of(s->trail[index])])
            index--;
        p = s->trail[index--];
        s->seen[var_of(p)] = 0;
        if (--pending == 0)
            break;
        uint32_t reason = s->reason[var_of(p)];
        if (!(reason & REASON_BIN) && (s->arena[reason + H_FLAGS] & F_LEARNED))
            bump_clause(s, reason);
        lits = reason_lits(s, reason, &one, &count);
    }
    out->data[0] = p ^ 1;

    /* Minimise: drop literals implied by the rest of the clause. */
    s->toclear.size = 0;
    uint32_t levels = 0;
    for (uint32_t k = 1; k < out->size; k++) {
        vec_push(&s->toclear, out->data[k]);
        levels |= abstract_level(s, var_of(out->data[k]));
    }
    uint32_t kept = 1;
    for (uint32_t k = 1; k < out->size; k++) {
        int32_t lit = out->data[k];
        if (s->reason[var_of(lit)] == CREF_NONE
            || !lit_redundant(s, lit, levels))
            out->data[kept++] = lit;
    }
    out->size = kept;
    for (uint32_t k = 0; k < s->toclear.size; k++)
        s->seen[var_of(s->toclear.data[k])] = 0;

    if (out->size == 1)
        return 0;
    uint32_t best = 1;
    for (uint32_t k = 2; k < out->size; k++)
        if (s->level[var_of(out->data[k])] > s->level[var_of(out->data[best])])
            best = k;
    int32_t tmp = out->data[1];
    out->data[1] = out->data[best];
    out->data[best] = tmp;
    return s->level[var_of(out->data[1])];
}

static uint32_t clause_lbd(Solver *s, const int32_t *lits, uint32_t size) {
    uint32_t levels = (uint32_t)decision_level(s) + 1;
    if (levels > s->stamp_cap) {
        s->stamp = (uint32_t *)xrealloc(s->stamp, levels * sizeof(uint32_t));
        memset(s->stamp + s->stamp_cap, 0,
               (levels - s->stamp_cap) * sizeof(uint32_t));
        s->stamp_cap = levels;
    }
    uint32_t mark = ++s->stamp_counter, lbd = 0;
    for (uint32_t k = 0; k < size; k++) {
        int level = s->level[var_of(lits[k])];
        if (s->stamp[level] != mark) {
            s->stamp[level] = mark;
            lbd++;
        }
    }
    return lbd;
}

/* The assumptions responsible for the falsified assumption `lit`:
 * flags the core (including `lit`) in s->failed. */
static void analyze_final(Solver *s, int32_t lit) {
    vec_push(&s->core, lit);
    s->failed[lit] = 1;
    if (decision_level(s) == 0)
        return;
    s->seen[var_of(lit)] = 1;
    for (int i = s->trail_size - 1; i >= s->trail_lim.data[0]; i--) {
        int32_t q = s->trail[i];
        int var = var_of(q);
        if (!s->seen[var])
            continue;
        s->seen[var] = 0;
        uint32_t reason = s->reason[var];
        if (reason == CREF_NONE) {
            if (!s->failed[q]) {
                s->failed[q] = 1;
                vec_push(&s->core, q);
            }
            continue;
        }
        int32_t one;
        uint32_t count;
        const int32_t *lits = reason_lits(s, reason, &one, &count);
        for (uint32_t k = 0; k < count; k++)
            if (s->level[var_of(lits[k])] > 0)
                s->seen[var_of(lits[k])] = 1;
    }
    s->seen[var_of(lit)] = 0;
}

/* ----------------------------------------------------- learned clause DB */

static int locked(const Solver *s, uint32_t cref) {
    int32_t first = clause_lits(s, cref)[0];
    return s->vals[first] == 1 && s->reason[var_of(first)] == cref;
}

typedef struct { uint32_t lbd; float act; uint32_t cref; } Victim;

static int compare_victims(const void *a, const void *b) {
    /* Worst first: high LBD, then low activity, then older. */
    const Victim *x = (const Victim *)a, *y = (const Victim *)b;
    if (x->lbd != y->lbd)
        return x->lbd > y->lbd ? -1 : 1;
    if (x->act != y->act)
        return x->act < y->act ? -1 : 1;
    return (x->cref > y->cref) - (x->cref < y->cref);
}

/* Rewrite the arena without deleted clauses and remap every cref. */
static void collect_garbage(Solver *s) {
    uint32_t *old = s->arena;
    size_t old_size = s->arena_size;
    s->arena = (uint32_t *)xrealloc(NULL, s->arena_cap * sizeof(uint32_t));
    s->arena_size = 0;
    s->learnts.size = 0;
    for (size_t cref = 0; cref < old_size;
         cref += HDR + old[cref + H_SIZE]) {
        uint32_t flags = old[cref + H_FLAGS];
        if (flags & F_DELETED)
            continue;
        uint32_t moved = alloc_clause(s, (int32_t *)old + cref + HDR,
                                      old[cref + H_SIZE],
                                      (int)(flags & F_LEARNED), flags >> 8);
        s->arena[moved + H_ACT] = old[cref + H_ACT];
        old[cref + H_ACT] = moved;
        if (flags & F_LEARNED)
            vec_push(&s->learnts, (int32_t)moved);
    }
    for (int lit = 2; lit <= 2 * s->nvars + 1; lit++) {
        WatchVec *ws = &s->watches[lit];
        for (uint32_t k = 0; k < ws->size; k++)
            ws->data[k].cref = old[ws->data[k].cref + H_ACT];
    }
    for (int i = 0; i < s->trail_size; i++) {
        int var = var_of(s->trail[i]);
        uint32_t reason = s->reason[var];
        if (reason != CREF_NONE && !(reason & REASON_BIN))
            s->reason[var] = old[reason + H_ACT];
    }
    free(old);
    s->wasted = 0;
}

static void reduce_learnts(Solver *s) {
    Victim *candidates = (Victim *)xrealloc(
        NULL, s->learnts.size * sizeof(Victim));
    uint32_t n = 0;
    for (uint32_t k = 0; k < s->learnts.size; k++) {
        uint32_t cref = (uint32_t)s->learnts.data[k];
        uint32_t lbd = s->arena[cref + H_FLAGS] >> 8;
        if (lbd > 2 && !locked(s, cref)) {
            candidates[n].lbd = lbd;
            candidates[n].act = clause_act(s, cref);
            candidates[n].cref = cref;
            n++;
        }
    }
    qsort(candidates, n, sizeof(Victim), compare_victims);
    uint32_t victims = n / 2;
    for (uint32_t k = 0; k < victims; k++) {
        uint32_t cref = candidates[k].cref;
        s->arena[cref + H_FLAGS] |= F_DELETED;
        s->wasted += HDR + s->arena[cref + H_SIZE];
        s->stats[S_DELETED]++;
    }
    free(candidates);
    if (victims == 0)
        return;
    uint32_t kept = 0;
    for (uint32_t k = 0; k < s->learnts.size; k++) {
        uint32_t cref = (uint32_t)s->learnts.data[k];
        if (!(s->arena[cref + H_FLAGS] & F_DELETED))
            s->learnts.data[kept++] = (int32_t)cref;
    }
    s->learnts.size = kept;
    for (int lit = 2; lit <= 2 * s->nvars + 1; lit++) {
        WatchVec *ws = &s->watches[lit];
        uint32_t out = 0;
        for (uint32_t k = 0; k < ws->size; k++)
            if (!(s->arena[ws->data[k].cref + H_FLAGS] & F_DELETED))
                ws->data[out++] = ws->data[k];
        ws->size = out;
    }
    if (s->wasted * 2 > s->arena_size)
        collect_garbage(s);
}

/* ------------------------------------------------------------------ search */

static int luby(int index) {
    int size = 1, level = 0;
    while (size < index + 1) {
        level++;
        size = 2 * size + 1;
    }
    while (size - 1 != index) {
        size = (size - 1) >> 1;
        level--;
        index %= size;
    }
    return 1 << level;
}

/* Store the clause in s->learnt (after backtracking to its assertion
 * level) and assert its first literal.  `lbd` was taken before the
 * backtrack, while every literal was still assigned. */
static void learn(Solver *s, uint32_t lbd) {
    int32_t *lits = s->learnt.data;
    uint32_t size = s->learnt.size;
    if (size == 1) {
        enqueue(s, lits[0], CREF_NONE);
        return;
    }
    s->stats[S_LEARNED]++;
    if (size == 2) {
        add_binary(s, lits[0], lits[1]);
        enqueue(s, lits[0], REASON_BIN | (uint32_t)lits[1]);
        return;
    }
    uint32_t cref = alloc_clause(s, lits, size, 1, lbd);
    attach(s, cref);
    vec_push(&s->learnts, (int32_t)cref);
    bump_clause(s, cref);
    enqueue(s, lits[0], cref);
}

static int terminate_requested(Solver *s) {
    return s->terminate != NULL && s->terminate(s->terminate_data) != 0;
}

static int search(Solver *s) {
    int restarts = 0;
    int64_t budget = (int64_t)RESTART_UNIT * luby(restarts);
    int64_t since_restart = 0;
    for (;;) {
        uint32_t conflict = propagate(s);
        if (conflict != CREF_NONE) {
            s->stats[S_CONFLICTS]++;
            since_restart++;
            if (decision_level(s) == 0) {
                s->ok = 0;
                return 20;
            }
            int level = analyze(s, conflict);
            uint32_t lbd = clause_lbd(s, s->learnt.data, s->learnt.size);
            backtrack(s, level);
            learn(s, lbd);
            s->var_inc /= 0.95;
            s->cla_inc /= 0.999;
            if ((s->stats[S_CONFLICTS] & POLL_CONFLICTS) == 0
                && terminate_requested(s)) {
                backtrack(s, 0);
                return 0;
            }
            if (since_restart >= budget) {
                s->stats[S_RESTARTS]++;
                budget = (int64_t)RESTART_UNIT * luby(++restarts);
                since_restart = 0;
                backtrack(s, 0);
            }
            if (s->learnts.size > s->max_learnts) {
                reduce_learnts(s);
                s->max_learnts += s->max_learnts / 10;
            }
            continue;
        }

        int32_t next = 0;
        while ((uint32_t)decision_level(s) < s->assumptions.size) {
            int32_t lit = s->assumptions.data[decision_level(s)];
            if (s->vals[lit] == 1) {
                /* Already true: an empty level keeps levels aligned. */
                vec_push(&s->trail_lim, s->trail_size);
            } else if (s->vals[lit] == -1) {
                analyze_final(s, lit);
                backtrack(s, 0);
                return 20;
            } else {
                next = lit;
                break;
            }
        }
        if (next == 0) {
            int var = 0;
            while (s->heap_size > 0) {
                int candidate = heap_pop(s);
                if (s->vals[2 * candidate] == 0) {
                    var = candidate;
                    break;
                }
            }
            if (var == 0) {
                for (int v = 1; v <= s->nvars; v++)
                    s->model[v] = s->vals[2 * v];
                s->has_model = 1;
                backtrack(s, 0);
                return 10;
            }
            s->stats[S_DECISIONS]++;
            if ((s->stats[S_DECISIONS] & POLL_DECISIONS) == 0
                && terminate_requested(s)) {
                heap_insert(s, var);
                backtrack(s, 0);
                return 0;
            }
            next = s->phase[var] ? 2 * var : 2 * var + 1;
        }
        vec_push(&s->trail_lim, s->trail_size);
        if (decision_level(s) > s->stats[S_MAX_LEVEL])
            s->stats[S_MAX_LEVEL] = decision_level(s);
        enqueue(s, next, CREF_NONE);
    }
}

/* ------------------------------------------------------------ IPASIR ABI */

const char *ipasir_signature(void) { return "checkfence-cdcl"; }

void *ipasir_init(void) {
    Solver *s = (Solver *)calloc(1, sizeof(Solver));
    if (!s)
        return NULL;
    s->ok = 1;
    s->var_inc = 1.0;
    s->cla_inc = 1.0;
    return s;
}

void ipasir_release(void *solver) {
    Solver *s = (Solver *)solver;
    for (int lit = 2; lit <= 2 * s->nvars + 1; lit++) {
        free(s->watches[lit].data);
        free(s->bins[lit].data);
    }
    free(s->vals); free(s->level); free(s->reason); free(s->activity);
    free(s->phase); free(s->seen); free(s->model); free(s->failed);
    free(s->stamp); free(s->watches); free(s->bins); free(s->heap);
    free(s->heap_pos); free(s->trail); free(s->trail_lim.data);
    free(s->arena); free(s->learnts.data); free(s->adding.data);
    free(s->assumptions.data); free(s->core.data); free(s->learnt.data);
    free(s->stack.data); free(s->toclear.data);
    free(s);
}

void ipasir_add(void *solver, int32_t lit) { add_literal((Solver *)solver, lit); }

void ipasir_assume(void *solver, int32_t lit) {
    Solver *s = (Solver *)solver;
    if (lit == 0)
        return;
    grow_vars(s, lit > 0 ? lit : -lit);
    vec_push(&s->assumptions, to_internal(lit));
}

int ipasir_solve(void *solver) {
    Solver *s = (Solver *)solver;
    for (uint32_t k = 0; k < s->core.size; k++)
        s->failed[s->core.data[k]] = 0;
    s->core.size = 0;
    s->has_model = 0;
    backtrack(s, 0);
    int result = 20;
    if (s->ok && propagate(s) != CREF_NONE)
        s->ok = 0;
    if (s->ok) {
        size_t floor = s->num_clauses / 3;
        s->max_learnts = floor > 2000 ? floor : 2000;
        result = search(s);
    }
    s->assumptions.size = 0;
    return result;
}

int32_t ipasir_val(void *solver, int32_t lit) {
    Solver *s = (Solver *)solver;
    int var = lit > 0 ? lit : -lit;
    if (!s->has_model || var > s->nvars || s->model[var] == 0)
        return 0;
    return s->model[var] > 0 ? var : -var;
}

int ipasir_failed(void *solver, int32_t lit) {
    Solver *s = (Solver *)solver;
    int var = lit > 0 ? lit : -lit;
    if (var == 0 || var > s->nvars)
        return 0;
    return s->failed[to_internal(lit)];
}

void ipasir_set_terminate(void *solver, void *data, int (*terminate)(void *)) {
    Solver *s = (Solver *)solver;
    s->terminate = terminate;
    s->terminate_data = data;
}

/* ------------------------------------------------------------ extensions */

int ipasirx_add_clauses(void *solver, const int32_t *lits, size_t count) {
    Solver *s = (Solver *)solver;
    for (size_t k = 0; k < count; k++)
        add_literal(s, lits[k]);
    return s->ok;
}

void ipasirx_values(void *solver, const int32_t *vars, size_t count,
                    int8_t *out) {
    Solver *s = (Solver *)solver;
    for (size_t k = 0; k < count; k++) {
        int32_t var = vars[k];
        out[k] = s->has_model && var > 0 && var <= s->nvars
                 && s->model[var] > 0;
    }
}

size_t ipasirx_stats(void *solver, int64_t *out, size_t count) {
    Solver *s = (Solver *)solver;
    for (size_t k = 0; k < count && k < NSTATS; k++)
        out[k] = s->stats[k];
    return NSTATS;
}
