/* Compiled kernels of aoisched, built and loaded by kernel.py.

   Built with -ffp-contract=off and without -ffast-math, so every double
   comparison and operation rounds as the same one in Python does. */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* A UE's sums, in the order of its row of ``sums``, one layout for both
   policies: the kernels add to them as they serve, and the engine hands
   them to metrics.add_sums, which unpacks them, once per window.  Its
   arrivals, attempts and deliveries, the latency t - g + 1 of each packet
   that arrived in slot g and was delivered in slot t, the count, sum and
   sum of squares of the spacing samples d = g - g_prev (g_prev being the
   arrival slot of its previous delivery, -1 until its first, which takes
   no sample), then, for AoI UEs under rd, the sum of each sample times its
   wait t - g and the age of every slot.  cmu leaves the last two 0. */
enum { ARRIVALS, ATTEMPTS, DELIVERIES, LATENCY, SAMPLES, SPACING, SPACING_SQ, SPACING_WAIT, AGE,
       NSUMS };

/* Add to row s the delivery in slot t of the packet that arrived in slot
   g, *g_prev being the arrival slot of the previous delivery (or -1).
   Returns its spacing sample g - *g_prev, or 0 for the first delivery,
   which takes none. */
static inline int64_t record(int64_t *s, int64_t *g_prev, int64_t g, int64_t t)
{
    int64_t d = 0;
    s[DELIVERIES]++;
    s[LATENCY] += t - g + 1;
    if (*g_prev >= 0) {
        d = g - *g_prev;
        s[SAMPLES]++;
        s[SPACING] += d;
        s[SPACING_SQ] += d * d;
    }
    *g_prev = g;
    return d;
}

static inline int64_t least(int64_t x, int64_t y)
{
    return x < y ? x : y;
}

/* numpy's PCG64, the bit generator of every stream rng.py builds: a 128-bit
   linear congruential generator, state * MULT + inc, whose output is the
   XSL-RR of the advanced state.  Advances *state and returns the output's
   top 53 bits, m: Generator.random returns m / 2^53, so it is below q iff
   m < ceil(q * 2^53), and both are exact for q in [0, 1]. */
typedef unsigned __int128 u128;
static const u128 MULT = (u128)2549297995355413924ULL << 64 | 4865540595714422341ULL;

static inline uint64_t bits53(u128 *state, u128 inc)
{
    const u128 s = *state = *state * MULT + inc;
    const uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
    const unsigned r = (unsigned)(s >> 122);
    return ((x >> r) | (x << (-r & 63))) >> 11;
}

/* The next draw of Generator.random. */
static inline double uniform(u128 *state, u128 inc)
{
    return (double)bits53(state, inc) * 0x1.0p-53;
}

/* numpy's SeedSequence, in 32-bit words: the entropy is hashed into a pool
   of POOL words, each word then mixed into every other, and the words past
   the pool mixed into all of it; generate_state hashes the pool, cycled,
   into the words asked for.  The constants are numpy's. */
enum { POOL = 4 };

static inline uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= 0x931e8875u;
    value *= *hash;
    return value ^ value >> 16;
}

static inline uint32_t mix(uint32_t x, uint32_t y)
{
    const uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ r >> 16;
}

/* Word i of a spawned stream's entropy: the nw words of the run seed,
   little-endian bytes, padded with zeros to the pool's size (numpy pads a
   seed shorter than the pool before a spawn key), then the nk words of
   the spawn key. */
static inline uint32_t entropy(const unsigned char *seed, int64_t nw, const uint32_t *key,
                               int64_t i)
{
    if (i < nw) {
        const unsigned char *b = seed + 4 * i;
        return (uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16 | (uint32_t)b[3] << 24;
    }
    const int64_t pad = nw < POOL ? POOL : nw;
    return i < pad ? 0 : key[i - pad];
}

/* Write to p[0:4] the PCG64 state and increment, each low 64 bits first,
   that np.random.PCG64(SeedSequence([seed], spawn_key=key)) starts from.
   The sequence's first four 64-bit words w, each two of its 32-bit words
   low first, give the 128-bit seed w0:w1 and sequence w2:w3 (high word
   first), which seed PCG64 as pcg64_srandom_r does: the increment is
   2 * sequence + 1, and the state 0 is stepped, the seed added, and the
   state stepped again. */
static void seed_stream(uint64_t *p, const unsigned char *seed, int64_t nw, const uint32_t *key,
                        int64_t nk)
{
    const int64_t len = (nw < POOL ? POOL : nw) + nk;
    uint32_t pool[POOL], hash = 0x43b0d7e5u;
    for (int i = 0; i < POOL; i++)
        pool[i] = hashmix(entropy(seed, nw, key, i), &hash);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    for (int64_t src = POOL; src < len; src++)
        for (int dst = 0; dst < POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy(seed, nw, key, src), &hash));
    uint64_t w[4];
    hash = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % POOL] ^ hash;
        hash *= 0x58f38dedu;
        value *= hash;
        value ^= value >> 16;
        w[i / 2] = i % 2 ? w[i / 2] | (uint64_t)value << 32 : value;
    }
    const u128 inc = ((u128)w[2] << 64 | w[3]) << 1 | 1;
    const u128 state = (inc + ((u128)w[0] << 64 | w[1])) * MULT + inc;
    p[0] = (uint64_t)state;
    p[1] = (uint64_t)(state >> 64);
    p[2] = (uint64_t)inc;
    p[3] = (uint64_t)(inc >> 64);
}

/* The rows of a run's streams, as rng.substreams spawns them from
   SeedSequence([seed]) and draw_block reads them: row k < narr (< 2^32,
   so k is one word) for arrival stream k, spawn key (0, k); then, of
   nrows <= 2, the success stream's, key (2,), and the policy stream's,
   key (1,).  seed holds the run seed's nw >= 1 32-bit words, as numpy
   splits a nonnegative int, read in place. */
void seed_streams(uint64_t *pcg, const unsigned char *seed, int64_t nw, int64_t narr,
                  int64_t nrows)
{
    for (int64_t k = 0; k < narr; k++) {
        const uint32_t key[2] = {0, (uint32_t)k};
        seed_stream(pcg + 4 * k, seed, nw, key, 2);
    }
    for (int64_t r = 0; r < nrows; r++) {
        const uint32_t key[1] = {2 - (uint32_t)r};
        seed_stream(pcg + 4 * (narr + r), seed, nw, key, 1);
    }
}

/* A block's streams and the queues of arrival slots they fill
   (kernel.QueueStore), bound once.  Stream k's PCG64 state and increment
   are pcg[4k:4k+4], each its low 64 bits first.  Stream k < narr is an
   arrival stream: queue pos[k] has an arrival in slot start + i, for
   0 < start + i and i < n, iff draw i of the block is below q[k].  Stream
   narr + r, r < nrows, fills row r of the block's uniforms,
   rows[r * width:][0:n].  Queue j of cap[j] elements holds its arrivals
   not yet served, ascending, in queues[j][head[j]:end[j]]; below them,
   queues[j][0:depth[j]] is rd's newest-first stack of a latency UE's
   packets taken from the queue, newest last, and [depth[j], head[j]) is
   free.  depth[j] <= head[j], since rd_serve advances past each arrival
   before pushing it; depth is 0 for every first-in-first-out queue. */
struct store {
    uint64_t *pcg;
    int64_t narr, nrows;
    const int64_t *pos;
    const double *q;
    double *rows;
    int64_t width, start, n, need;
    int64_t *const *queues;
    const int64_t *cap;
    int64_t *head, *end, *depth;
};

/* Streams drawn side by side: each one's draws are a chain of dependent
   128-bit multiplies, so two chains keep the multiplier busier than one;
   with four, x86-64's sixteen registers no longer hold every lane's state,
   and a draw costs more.  The hot loops over the lanes are unrolled by
   pragma, so each lane's variables live in registers. */
enum { LANES = 2 };

/* Draw the block of the a arrival streams and then f filling streams from
   stream k on (a + f <= LANES), slot by slot, each stream's draw in turn:
   an arrival is written at its queue's end while the storage has room, and
   counted in any case, so the draws take no branch.  Each arrival queue
   whose live packets are no more than the gap below them, head[j] -
   depth[j], is first moved down onto its stack: only a packet that leaves
   the storage (a delivery, or an arrival taken other than onto the stack)
   widens the gap, and each pays for at most one move, so a run moves no
   more packets than leave.  A queue that lacks room after that grows to
   at least twice its storage, so its growths copy fewer packets than its
   final storage holds.
   Returns 0 once every stream's states and queue ends are advanced; or 1 +
   the first arrival stream whose queue lacks room for its arrivals, its
   stack, live packets and arrivals in store->need, every state and end of
   the group left as it was, so drawing the group again, once the queue has
   room, draws the same. */
static inline __attribute__((always_inline)) int64_t group(struct store *restrict s, int64_t k,
                                                             const int a, const int f)
{
    u128 state[LANES], inc[LANES];
    int64_t *queue[LANES], e[LANES], c[LANES];
    uint64_t below[LANES];
    double *row[LANES];
    const int64_t start = s->start, n = s->n;
    for (int l = 0; l < a + f; l++) {
        const uint64_t *p = s->pcg + 4 * (k + l);
        state[l] = (u128)p[1] << 64 | p[0];
        inc[l] = (u128)p[3] << 64 | p[2];
    }
    for (int l = 0; l < a; l++) {
        const int64_t j = s->pos[k + l], h = s->head[j], d = s->depth[j];
        queue[l] = s->queues[j];
        e[l] = s->end[j];
        c[l] = s->cap[j];
        below[l] = (uint64_t)ceil(s->q[k + l] * 0x1.0p53);
        if (h > d && e[l] - h <= h - d) {
            memmove(queue[l] + d, queue[l] + h, (size_t)(e[l] - h) * sizeof *queue[l]);
            s->end[j] = e[l] -= h - d;
            s->head[j] = d;
        }
    }
    for (int l = a; l < a + f; l++)
        row[l] = s->rows + (k + l - s->narr) * s->width;
    int64_t i = 0;
    if (start == 0) {  /* slot 0's draws: never an arrival */
        for (int l = 0; l < a; l++)
            bits53(&state[l], inc[l]);
        for (int l = a; l < a + f; l++)
            row[l][0] = uniform(&state[l], inc[l]);
        i = 1;
    }
    for (; i < n; i++) {
#pragma GCC unroll 2
        for (int l = 0; l < a; l++) {
            const uint64_t m = bits53(&state[l], inc[l]);
            if (e[l] < c[l])
                queue[l][e[l]] = start + i;
            e[l] += m < below[l];
        }
#pragma GCC unroll 2
        for (int l = a; l < a + f; l++)
            row[l][i] = uniform(&state[l], inc[l]);
    }
    for (int l = 0; l < a; l++)
        if (e[l] > c[l]) {
            const int64_t j = s->pos[k + l];
            s->need = s->depth[j] + e[l] - s->head[j];
            return 1 + k + l;
        }
    for (int l = 0; l < a; l++)
        s->end[s->pos[k + l]] = e[l];
    for (int l = 0; l < a + f; l++) {
        uint64_t *p = s->pcg + 4 * (k + l);
        p[0] = (uint64_t)state[l];
        p[1] = (uint64_t)(state[l] >> 64);
    }
    return 0;
}

/* Draw the block of every stream of the store from stream k's group of
   LANES on, the groups in order (see group).  Returns 0 once all are
   drawn, or group's 1 + stream for a queue that lacks room: the caller
   (kernel.QueueStore) makes room and calls again from that stream. */
int64_t draw_block(struct store *restrict s, int64_t k)
{
    const int64_t total = s->narr + s->nrows;
    for (k -= k % LANES; k < total; k += LANES) {
        const int64_t w = least(LANES, total - k), a = least(w, s->narr > k ? s->narr - k : 0);
        int64_t r = 0;
        switch (a * (LANES + 1) + w - a) {  /* every a + f <= LANES, each inlined */
#define GROUP(a, f) case (a) * (LANES + 1) + (f): r = group(s, k, a, f); break
            GROUP(1, 0); GROUP(2, 0); GROUP(0, 1); GROUP(1, 1); GROUP(0, 2);
#undef GROUP
        }
        if (r)
            return r;
    }
    return 0;
}

/* Index of the first of queue[lo:hi], ascending, that is >= slot. */
static int64_t first_at(const int64_t *queue, int64_t lo, int64_t hi, int64_t slot)
{
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (queue[mid] < slot)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The arrival slot of the oldest packet in queue[h:e], or INT64_MAX if
   it is empty. */
static inline int64_t oldest(const int64_t *queue, int64_t h, int64_t e)
{
    return h < e ? queue[h] : INT64_MAX;
}

/* A tournament tree over the heads of n >= 1 of a store's queues,
   queues[j] for j in idx[0:n], in tree[1:2 * leaves], leaves being the
   least power of two >= n (so 2 * leaves <= 4 * n): leaf leaves + k holds
   the oldest slot of queue idx[k] (INT64_MAX past n), and each inner node
   the least of its two children's.  Fills it and returns leaves. */
static int64_t tree_build(int64_t *tree, int64_t *const *queues, const int64_t *head,
                          const int64_t *end, const int64_t *idx, int64_t n)
{
    int64_t leaves = 1;
    while (leaves < n)
        leaves *= 2;
    for (int64_t k = 0; k < leaves; k++)
        tree[leaves + k] = k < n ? oldest(queues[idx[k]], head[idx[k]], end[idx[k]]) : INT64_MAX;
    for (int64_t i = leaves - 1; i > 0; i--)
        tree[i] = least(tree[2 * i], tree[2 * i + 1]);
    return leaves;
}

/* The leftmost leaf <= t, which tree[1] <= t promises, found by walking
   down from the root; *wake gets the least of the left children passed
   over, which is the least slot of the leaves left of it. */
static inline int64_t tree_first(const int64_t *tree, int64_t leaves, int64_t t, int64_t *wake)
{
    int64_t i = 1, w = INT64_MAX;
    while (i < leaves) {
        const int64_t left = tree[2 * i], right = left > t;
        if (right)
            w = least(w, left);
        i = 2 * i + right;
    }
    *wake = w;
    return i;
}

/* Raise leaf i to x: a leaf only grows, so its ancestors change only up to
   the first whose least stays as it was. */
static inline void tree_raise(int64_t *tree, int64_t i, int64_t x)
{
    tree[i] = x;
    for (; i > 1; i /= 2) {
        x = least(x, tree[i ^ 1]);
        if (tree[i / 2] == x)
            break;
        tree[i / 2] = x;
    }
}

/* cmu's state (policies.CmuPolicy), bound once: the block's success
   uniforms u, drawn into the store's row 0; nq >= 1 queues in the store,
   taken in ``order``, queue j succeeding at p[j], each one's arrival slot
   of its last delivery in g_prev[j] and its row of sums at
   sums[j * NSUMS:], and room for cmu_serve's tree in tree[0:4 * nq]. */
struct cmu {
    const struct store *store;
    const double *u;
    int64_t nq;
    const int64_t *order;
    const double *p;
    int64_t *g_prev, *sums, *tree;
};

/* Serve slots [a, b) of the store's block under the weighted-rate rule
   (see policies.CmuPolicy).  Returns 0, or -1, serving none, if [a, b)
   is not in the block.

   The store holds queue j's undelivered packets, of which one whose slot
   is after t has not yet arrived in slot t.  So queue j is nonempty in
   slot t, after the slot's arrivals, iff head[j] < end[j] and
   queues[j][head[j]] <= t.  In each slot the queues are taken in
   ``order``; the first nonempty one attempts and succeeds iff the slot's
   uniform is below p[j], which delivers its oldest packet and advances
   head[j].  A slot where every queue is empty jumps to the earliest slot
   at which a queued packet arrives, or to b.

   The first nonempty queue keeps the slots until a queue ranked above it
   has an arrival, or until it empties; the lowest-ranked queue keeps them
   across its empty slots too, which then are idle.  Those slots are served
   in a loop that keeps the queue's sums in a local row, which the
   compiler holds in registers, and adds it to the queue's: slot by slot,
   or, for the lowest-ranked queue, packet by packet, each packet's failed
   attempts being the draws up to its first success.

   Which queue keeps the slots, and until when, comes from a tournament
   tree over the queues in ``order``, leaf r the queue of rank r: the
   leftmost leaf <= t is the first nonempty rank, and the least of the
   left children passed on the way down is the first slot at which a rank
   above it has an arrival, in log2(leaves) steps whatever the rank.

   Adds queue j's sums over the slots to its row (every packet that
   arrives in [a, b) is still queued when it starts, so its arrivals are
   counted here); g_prev[j] carries over to the next call. */
int64_t cmu_serve(const struct cmu *restrict c, int64_t a, int64_t b)
{
    const struct store *store = c->store;
    if (a < store->start || a > b || b > store->start + store->n)
        return -1;
    const double *restrict u = c->u;
    int64_t *const *queues = store->queues;
    int64_t *restrict head = store->head, *restrict tree = c->tree;
    const int64_t *restrict end = store->end, *restrict order = c->order;
    const int64_t base = store->start, nq = c->nq;
    for (int64_t j = 0; j < nq; j++)
        c->sums[j * NSUMS + ARRIVALS] += first_at(queues[j], head[j], end[j], b)
                                       - first_at(queues[j], head[j], end[j], a);
    const int64_t leaves = tree_build(tree, queues, head, end, order, nq);
    int64_t t = a;
    while (t < b) {
        if (tree[1] > t) {  /* every queue is empty in slot t */
            t = least(tree[1], b);
            continue;
        }
        /* the first queue nonempty in slot t, and the first slot at which
           a queue ranked above it has an arrival */
        int64_t wake;
        const int64_t i = tree_first(tree, leaves, t, &wake);
        wake = least(wake, b);
        const int64_t r = i - leaves, j = order[r], e = end[j];
        const int64_t *queue = queues[j];
        const double pj = c->p[j];
        int64_t h = head[j];
        int64_t sum[NSUMS] = {0}, prev = c->g_prev[j];
        if (r + 1 == nq) {
            for (; h < e; h++) {
                const int64_t g = queue[h];
                if (g > t)
                    t = g;
                if (t >= wake) {
                    t = wake;
                    break;
                }
                const int64_t from = t;
                while (t < wake && !(u[t - base] < pj))
                    t++;
                sum[ATTEMPTS] += t - from;
                if (t == wake)
                    break;
                sum[ATTEMPTS]++;
                record(sum, &prev, g, t++);
            }
        } else {
            const int64_t from = t;
            for (; t < wake && h < e && queue[h] <= t; t++)
                if (u[t - base] < pj)
                    record(sum, &prev, queue[h++], t);
            sum[ATTEMPTS] += t - from;
        }
        for (int k = 0; k < NSUMS; k++)
            c->sums[j * NSUMS + k] += sum[k];
        head[j] = h;
        c->g_prev[j] = prev;
        tree_raise(tree, i, oldest(queue, h, e));
    }
    return 0;
}

/* One UE's state under rd, one entry per UE position, laid out as the
   numpy dtype kernel.UE_STATE: all fields are 8 bytes, so neither side
   pads.  Fields a UE's class does not use keep their initial values. */
struct ue {
    /* AoI eligibility gate: a bump needs more than threshold slots since
       the last; while counter > delivered each arrival is retained */
    int64_t threshold, bump, counter, delivered;
    int64_t packet;   /* arrival slot of the retained packet, or -1 */
    int64_t lam;      /* newest delivered arrival slot */
    int64_t aged;     /* last slot whose age is summed */
    int64_t g_prev;   /* arrival slot of the window's last delivery, or -1 */
    int64_t tries;    /* throughput: attempts so far */
    double p;         /* success probability */
    double weight;    /* AoI: rho*p; latency: theta; throughput: alpha */
    double index;     /* AoI: rho*p*(g - lam) of the retained packet g */
};

/* rd's state (policies.RandomizedPolicy), bound once.  u holds the
   block's success uniforms and draws its policy uniforms, the store's rows
   0 and 1, and the store's queue i the arrival slots of AoI or latency UE
   i not yet served, and below them a latency UE's stack.
   members lists the AoI positions, then the latency ones, then the
   throughput ones group after group, each ascending; groups[g] is where
   group g starts among the throughput ones (ngroups + 1 entries).  ue and
   the rows of sums are one per position.  rd_serve keeps its serving
   state here between calls: the nq latency UEs holding a packet,
   queued[0:nq] in ascending position, and their partition cum (room for
   nlat); the np AoI UEs holding a retained packet, pool[0:np] in any
   order, and best, the one whose packet outranks the others' (-1 if np is
   0); and turn[g], where group g's candidate stands (ngroups entries, 0 at
   first).  wheel (the store's width), link and cursor (naoi + nlat each)
   are its scratch, so the C stack holds none of these however many UEs
   there are. */
struct rd {
    const struct store *store;
    const double *u, *draws;
    int64_t naoi, nlat, ngroups;
    const int64_t *members, *groups;
    struct ue *ue;
    int64_t *sums, *queued;
    double *cum;
    int64_t *pool, *turn, *wheel, *link, *cursor;
    int64_t nq, np, best;
};

/* The theta partition of [0, 1) among the nq latency queues that hold a
   packet, queued[0:nq] in ascending position: queued[k] has
   [cum[k-1], cum[k]).  Shares that sum above 1 are scaled to fill it; the
   rest of [0, 1) is the leftover. */
static void partition(int64_t nq, const int64_t *queued, const struct ue *ue, double *cum)
{
    double total = 0.0;
    for (int64_t k = 0; k < nq; k++)
        total += ue[queued[k]].weight;
    const double scale = total <= 1.0 ? 1.0 : 1.0 / total;
    double acc = 0.0;
    for (int64_t k = 0; k < nq; k++)
        cum[k] = acc += ue[queued[k]].weight * scale;
}

/* Whether AoI UE i's retained packet outranks UE j's: a larger index, or
   the same one at a lower position. */
static inline int outranks(const struct ue *ue, int64_t i, int64_t j)
{
    return ue[i].index > ue[j].index || (ue[i].index == ue[j].index && i < j);
}

/* The AoI UE of pool[0:np] (those holding a packet, in any order) whose
   packet outranks the others', or -1 if np is 0. */
static int64_t pool_best(int64_t np, const int64_t *pool, const struct ue *ue)
{
    int64_t best = -1;
    for (int64_t k = 0; k < np; k++)
        if (best < 0 || outranks(ue, pool[k], best))
            best = pool[k];
    return best;
}

/* Gate AoI UE i's arrival in slot t; retain it while the counter is ahead,
   adding i to pool[0:*np] if it held no packet and keeping *best the
   pool's argmax.  A UE's index only grows while it holds a packet (t
   grows, lam stays), so the best stays best until its packet is
   delivered, and only a retained packet can take its place. */
static inline void aoi_arrival(struct ue *ue, int64_t i, int64_t t, int64_t *pool,
                               int64_t *np, int64_t *best)
{
    struct ue *x = &ue[i];
    if (t - x->bump > x->threshold) {
        x->bump = t;
        x->counter++;
    }
    if (x->counter > x->delivered) {
        if (x->packet < 0)
            pool[(*np)++] = i;
        x->packet = t;
        x->index = x->weight * (double)(t - x->lam);
        if (*best < 0 || outranks(ue, i, *best))
            *best = i;
    }
}

/* The group whose candidate thr[groups[g] + turn[g]] has the largest
   alpha*t/p - tries in slot t, ties to the lowest position. */
static int64_t throughput_best(int64_t t, int64_t ngroups, const int64_t *groups,
                               const int64_t *turn, const int64_t *thr, const struct ue *ue)
{
    int64_t best = -1, best_i = -1;
    double best_y = -INFINITY;
    for (int64_t g = 0; g < ngroups; g++) {
        const int64_t i = thr[groups[g] + turn[g]];
        const double y = ue[i].weight * (double)t / ue[i].p - (double)ue[i].tries;
        if (y > best_y || (y == best_y && i < best_i)) {
            best = g;
            best_i = i;
            best_y = y;
        }
    }
    return best;
}

/* Add the age s - lam of AoI slots s in (aged, t] to row s: lam only moves
   at a delivery, so this runs before each and at the end of each call. */
static inline void accrue(int64_t *s, struct ue *x, int64_t t)
{
    s[AGE] += (t - x->aged) * (t + x->aged + 1 - 2 * x->lam) / 2;
    x->aged = t;
}

/* Serve slots [a, b) of the store's block under the randomised latency
   policy (see policies.RandomizedPolicy), in the engine's per-slot order:
   the slot's arrivals, then one selection, then the outcome.  Returns 0,
   or -1, serving none, if [a, b) is not in the block or a queued arrival
   is before a (the calls skipped slots).

   Stream k (k < naoi + nlat) is queue members[k] of the store, read
   first-in-first-out from cursor[k], which starts at its head: a timing
   wheel over [a, b) lists the streams by the slot of their next arrival,
   wheel[t - a] naming one whose next arrival is slot t (-1: none) and
   link[k] the next in the same slot.  Each stream's first arrival in
   [a, b) is entered when the call starts; serving slot t takes its list,
   and each stream taken enters its following arrival, which is after t,
   if it is before b.  So an arrival costs the same at any number of
   streams.  The heads are set to the cursors, and each stream's arrivals
   added to its row, once, at the end.  The wheel hands a slot's arrivals
   out last-in first-out, and their order changes nothing: each stream
   has at most one per slot; each stack sees only its own stream's; queued
   is kept sorted whatever order UEs join it in; and the pool's best is
   the maximum under outranks, a total order, whatever order its members
   are retained in.

   A latency UE's arrival taken in slot t is pushed onto its stack,
   queues[i][depth[i]++] = t, where the cursor has already passed it, so
   depth[i] never passes the cursor and the stack never reaches a packet
   not yet taken: the store's storage holds both, and nothing here grows.

   In slot t, the policy uniform picks the latency queue whose partition
   interval holds it, which sends its newest packet; a draw in the
   leftover goes to the retained AoI packet with the largest index, and
   without one to the best throughput candidate, g = t.  The attempt
   succeeds iff the slot's success uniform is below p.

   No step of a slot walks every UE: its arrivals come from the wheel; the
   AoI UEs holding a packet are listed, and their argmax is kept as
   packets are retained and found again among them only when it is
   delivered; the queued latency UEs are kept in order, so a partition
   sums only their shares; and each group's candidate, the member with the
   fewest tries, lowest position first, is the next member, round the
   group, after each attempt, since every member starts at 0 and only the
   candidate attempts.  That state carries over to the next call, so a
   block served in many calls is served as in one.

   Adds each UE's sums over the slots to its row, sums[i * NSUMS:], the
   AoI UEs' spacing times wait and age included. */
int64_t rd_serve(struct rd *restrict r, int64_t a, int64_t b)
{
    const struct store *store = r->store;
    if (a < store->start || a > b || b > store->start + store->n)
        return -1;
    const double *restrict u = r->u, *restrict draws = r->draws;
    const int64_t naoi = r->naoi, nlat = r->nlat, ngroups = r->ngroups, base = store->start;
    const int64_t *restrict members = r->members, *restrict groups = r->groups;
    int64_t *const *queues = store->queues;
    int64_t *restrict head = store->head, *restrict depth = store->depth;
    const int64_t *restrict end = store->end;
    struct ue *restrict ue = r->ue;
    int64_t *restrict sums = r->sums, *restrict queued = r->queued;
    int64_t *restrict pool = r->pool, *restrict turn = r->turn;
    int64_t *restrict wheel = r->wheel, *restrict link = r->link, *restrict cursor = r->cursor;
    double *restrict cum = r->cum;
    const int64_t *aoi = members, *thr = aoi + naoi + nlat;
    for (int64_t t = a; t < b; t++)
        wheel[t - a] = -1;
    for (int64_t k = 0; k < naoi + nlat; k++) {
        const int64_t i = members[k], h = cursor[k] = head[i];
        if (h < end[i]) {
            const int64_t g = queues[i][h];
            if (g < a)
                return -1;
            if (g < b) {
                link[k] = wheel[g - a];
                wheel[g - a] = k;
            }
        }
    }
    int64_t nq = r->nq, np = r->np, best = r->best;
    for (int64_t t = a; t < b; t++) {
        if (wheel[t - a] >= 0) {
            int regroup = 0;
            for (int64_t k = wheel[t - a], next; k >= 0; k = next) {
                const int64_t i = members[k], h = ++cursor[k], g = h < end[i] ? queues[i][h] : b;
                next = link[k];
                if (g < b) {  /* its following arrival, after t */
                    link[k] = wheel[g - a];
                    wheel[g - a] = k;
                }
                if (k < naoi)
                    aoi_arrival(ue, i, t, pool, &np, &best);
                else {
                    if (!depth[i]) {  /* into queued, ascending */
                        int64_t j = nq++;
                        for (; j && queued[j - 1] > i; j--)
                            queued[j] = queued[j - 1];
                        queued[j] = i;
                        regroup = 1;
                    }
                    queues[i][depth[i]++] = t;
                }
            }
            if (regroup)
                partition(nq, queued, ue, cum);
        }
        const double draw = draws[t - base];
        int64_t k = 0;
        while (k < nq && !(draw < cum[k]))
            k++;
        if (k < nq) {
            const int64_t i = queued[k];
            struct ue *x = &ue[i];
            int64_t *s = sums + i * NSUMS;
            s[ATTEMPTS]++;
            if (u[t - base] < x->p) {
                record(s, &x->g_prev, queues[i][--depth[i]], t);
                if (!depth[i]) {
                    memmove(queued + k, queued + k + 1, (size_t)(--nq - k) * sizeof *queued);
                    partition(nq, queued, ue, cum);
                }
            }
        } else if (best >= 0) {
            struct ue *x = &ue[best];
            int64_t *s = sums + best * NSUMS;
            s[ATTEMPTS]++;
            if (u[t - base] < x->p) {
                const int64_t g = x->packet;
                accrue(s, x, t);
                s[SPACING_WAIT] += record(s, &x->g_prev, g, t) * (t - g);
                if (x->lam < g)
                    x->lam = g;
                x->delivered++;
                x->packet = -1;
                int64_t j = 0;
                while (pool[j] != best)
                    j++;
                pool[j] = pool[--np];
                best = pool_best(np, pool, ue);
            }
        } else if (ngroups) {
            const int64_t g = throughput_best(t, ngroups, groups, turn, thr, ue);
            const int64_t i = thr[groups[g] + turn[g]];
            struct ue *x = &ue[i];
            int64_t *s = sums + i * NSUMS;
            s[ATTEMPTS]++;
            x->tries++;
            if (++turn[g] == groups[g + 1] - groups[g])
                turn[g] = 0;
            if (u[t - base] < x->p)
                record(s, &x->g_prev, t, t);
        }
    }
    for (int64_t k = 0; k < naoi; k++)
        accrue(sums + aoi[k] * NSUMS, &ue[aoi[k]], b - 1);
    for (int64_t k = 0; k < naoi + nlat; k++) {
        const int64_t i = members[k];
        sums[i * NSUMS + ARRIVALS] += cursor[k] - head[i];
        head[i] = cursor[k];
    }
    r->nq = nq;
    r->np = np;
    r->best = best;
    return 0;
}
