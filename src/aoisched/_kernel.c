/* Compiled kernels of aoisched, built and loaded by kernel.py.

   Built with -ffp-contract=off and without -ffast-math, so every double
   comparison and operation rounds as the same one in Python does. */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* A queue's sums over a segment, in the order of its row of ``sums``. */
enum { ARRIVALS, ATTEMPTS, DELIVERIES, LATENCY, SAMPLES, SPACING, SPACING_SQ, NSUMS };

/* Write slot at queue[e] if the storage has room (c elements), and move
   past it if it is an arrival: no branch on the draws. */
static inline int64_t append(int64_t *queue, int64_t e, int64_t c, int64_t slot, int arrived)
{
    if (e < c)
        queue[e] = slot;
    return e + arrived;
}

/* Append to queue j the block's arrival slots: slot start + k arrives iff
   u[k] < q, for k < n (slot 0 has none).

   Queue j holds its packets' arrival slots, ascending, in
   queues[j][head[j]:end[j]] of cap[j] elements.  Once head[j] has passed
   the midpoint, the live part is first moved to the front.  One pass then
   appends the arrivals while there is room.  Returns 0 once they are
   appended; if they do not fit, it leaves end[j] as it was and returns the
   length the queue needs, for the caller to grow its storage and call
   again. */
int64_t cmu_enqueue(const double *restrict u, int64_t n, double q, int64_t start,
                    int64_t j, int64_t *const *restrict queues,
                    const int64_t *restrict cap, int64_t *restrict head,
                    int64_t *restrict end)
{
    int64_t *queue = queues[j], h = head[j], e = end[j];
    const int64_t c = cap[j];
    if (2 * h > c) {
        memmove(queue, queue + h, (size_t)(e - h) * sizeof *queue);
        end[j] = e -= h;
        head[j] = h = 0;
    }
    int64_t k = start == 0;
    /* Below q = 1/32, seven fours of slots in eight hold no arrival, so a
       branch per four skips them at few mispredictions; above, a branch on
       the draws costs more than it skips. */
    if (q < 1.0 / 32)
        for (; k + 4 <= n; k += 4)
            if ((u[k] < q) | (u[k + 1] < q) | (u[k + 2] < q) | (u[k + 3] < q))
                for (int64_t i = k; i < k + 4; i++)
                    e = append(queue, e, c, start + i, u[i] < q);
    for (; k < n; k++)
        e = append(queue, e, c, start + k, u[k] < q);
    if (e > c)
        return e - h;
    end[j] = e;
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

/* The sums of the queue being served, and its last delivered arrival slot,
   held in local variables while it keeps the slots. */
struct served { int64_t attempts, deliveries, latency, samples, spacing, spacing_sq, prev; };

/* Deliver in slot t the packet that arrived in slot g. */
static inline void deliver(struct served *s, int64_t g, int64_t t)
{
    s->deliveries++;
    s->latency += t - g + 1;
    if (s->prev >= 0) {
        int64_t d = g - s->prev;
        s->samples++;
        s->spacing += d;
        s->spacing_sq += d * d;
    }
    s->prev = g;
}

/* Serve slots [a, a + n) under the weighted-rate rule (see cmu.CmuPolicy).

   The queues are laid out as for cmu_enqueue: queue j's undelivered
   packets, of which one whose slot is after t has not yet arrived in slot
   t.  So queue j is nonempty in slot t, after the slot's arrivals, iff
   head[j] < end[j] and queues[j][head[j]] <= t.  In each slot the queues
   are taken in ``order``; the first nonempty one attempts and succeeds iff
   u[t - a] < p[j], which delivers its oldest packet and advances head[j].
   A slot where every queue is empty jumps to the earliest slot at which a
   queued packet arrives, or to the segment's end.

   The first nonempty queue keeps the slots until a queue ranked above it
   has an arrival, or until it empties; the lowest-ranked queue keeps them
   across its empty slots too, which then are idle.  Those slots are served
   in a loop that keeps the queue's sums in local variables: slot by slot,
   or, for the lowest-ranked queue, packet by packet, each packet's failed
   attempts being the draws up to its first success.

   Writes queue j's sums over the segment to sums[j * NSUMS:], in the
   enum's order: arrivals (every packet that arrives in the segment is
   still queued when it starts), attempts, deliveries, the latency
   t - g + 1 of each packet that arrived in slot g and was delivered in
   slot t, and the count, sum and sum of squares of the spacing samples
   d = g - g_prev, g_prev being the arrival slot of the queue's previous
   delivery (-1 until its first, which takes no sample).  g_prev[j] carries
   over to the next segment.  ``oldest`` (nq entries) is scratch. */
void cmu_serve(int64_t a, int64_t n, const double *restrict u, int64_t nq,
               int64_t *const *restrict queues, const int64_t *restrict order,
               const double *restrict p, int64_t *restrict head,
               const int64_t *restrict end, int64_t *restrict g_prev,
               int64_t *restrict sums, int64_t *restrict oldest)
{
    const int64_t stop = a + n;
    /* oldest[r]: arrival slot of the oldest undelivered packet of the queue
       of rank r, or INT64_MAX if it has none */
    for (int64_t r = 0; r < nq; r++) {
        int64_t j = order[r], h = head[j], e = end[j];
        const int64_t *queue = queues[j];
        oldest[r] = h < e ? queue[h] : INT64_MAX;
        int64_t *s = sums + j * NSUMS;
        memset(s, 0, NSUMS * sizeof *s);
        s[ARRIVALS] = first_at(queue, h, e, stop) - first_at(queue, h, e, a);
    }
    int64_t t = a;
    while (t < stop) {
        /* the first queue nonempty in slot t, and the first slot at which
           a queue ranked above it has an arrival */
        int64_t r = 0, wake = stop;
        for (; r < nq && oldest[r] > t; r++)
            if (oldest[r] < wake)
                wake = oldest[r];
        if (r == nq) {
            t = wake;
            continue;
        }
        const int64_t j = order[r], e = end[j];
        const int64_t *queue = queues[j];
        const double pj = p[j];
        int64_t h = head[j];
        struct served s = {.prev = g_prev[j]};
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
                while (t < wake && !(u[t - a] < pj))
                    t++;
                s.attempts += t - from;
                if (t == wake)
                    break;
                s.attempts++;
                deliver(&s, g, t++);
            }
        } else {
            const int64_t from = t;
            for (; t < wake && h < e && queue[h] <= t; t++)
                if (u[t - a] < pj)
                    deliver(&s, queue[h++], t);
            s.attempts = t - from;
        }
        int64_t *sum = sums + j * NSUMS;
        sum[ATTEMPTS] += s.attempts;
        sum[DELIVERIES] += s.deliveries;
        sum[LATENCY] += s.latency;
        sum[SAMPLES] += s.samples;
        sum[SPACING] += s.spacing;
        sum[SPACING_SQ] += s.spacing_sq;
        head[j] = h;
        g_prev[j] = s.prev;
        oldest[r] = h < e ? queue[h] : INT64_MAX;
    }
}

/* One UE's state under rd, one entry per UE position, laid out as the
   numpy dtype policies.UE_STATE: all fields are 8 bytes, so neither side
   pads.  Fields a UE's class does not use keep their initial values. */
struct ue {
    int64_t *stack;   /* latency: its queued packets' arrival slots, newest last */
    int64_t depth;    /* how many it holds */
    /* AoI eligibility gate: a bump needs more than threshold slots since
       the last; while counter > delivered each arrival is retained */
    int64_t threshold, bump, counter, delivered;
    int64_t packet;   /* arrival slot of the retained packet, or -1 */
    int64_t lam;      /* newest delivered arrival slot */
    int64_t aged;     /* last slot whose age is summed */
    int64_t g_prev;   /* arrival slot of the window's last delivery, or -1 */
    int64_t tries;    /* throughput: attempts so far */
    int64_t group;    /* throughput: its group of UEs sharing (alpha, p) */
    double p;         /* success probability */
    double weight;    /* AoI: rho*p; latency: theta; throughput: alpha */
    double index;     /* AoI: rho*p*(g - lam) of the retained packet g */
};

/* rd's sums over a segment extend a row of cmu's: the spacing sample times
   the wait t - g of each AoI delivery, and the AoI age of every slot. */
enum { SPACING_WAIT = NSUMS, AGE, NSUMS_RD };

/* The theta partition of [0, 1) among the latency queues that hold a
   packet, in ascending position: queued[k] has [cum[k-1], cum[k]).
   Shares that sum above 1 are scaled to fill it; the rest of [0, 1) is
   the leftover.  Returns how many queues hold a packet. */
static int64_t partition(int64_t nlat, const int64_t *lat, const struct ue *ue,
                         int64_t *queued, double *cum)
{
    int64_t nq = 0;
    double total = 0.0;
    for (int64_t k = 0; k < nlat; k++)
        if (ue[lat[k]].depth) {
            queued[nq++] = lat[k];
            total += ue[lat[k]].weight;
        }
    const double scale = total <= 1.0 ? 1.0 : 1.0 / total;
    double acc = 0.0;
    for (int64_t k = 0; k < nq; k++)
        cum[k] = acc += ue[queued[k]].weight * scale;
    return nq;
}

/* Gate an AoI arrival in slot t; retain it while the counter is ahead. */
static inline void aoi_arrival(struct ue *x, int64_t t, int64_t *pooled)
{
    if (t - x->bump > x->threshold) {
        x->bump = t;
        x->counter++;
    }
    if (x->counter > x->delivered) {
        *pooled += x->packet < 0;
        x->packet = t;
        x->index = x->weight * (double)(t - x->lam);
    }
}

/* The AoI UE whose retained packet has the largest index, lowest position
   on ties. */
static int64_t aoi_best(int64_t naoi, const int64_t *aoi, const struct ue *ue)
{
    int64_t best = -1;
    for (int64_t k = 0; k < naoi; k++) {
        const int64_t i = aoi[k];
        if (ue[i].packet >= 0 && (best < 0 || ue[i].index > ue[best].index))
            best = i;
    }
    return best;
}

/* The throughput UE with the largest alpha*t/p - tries in slot t.  thr
   lists each group's members together, in ascending position; a group's
   candidate is its member with the fewest tries, lowest position first, and
   ties between groups go to the lowest position. */
static int64_t throughput_best(int64_t t, int64_t nthr, const int64_t *thr, const struct ue *ue)
{
    int64_t best = -1;
    double best_y = -INFINITY;
    for (int64_t k = 0; k < nthr;) {
        int64_t i = thr[k];
        const int64_t group = ue[i].group;
        for (k++; k < nthr && ue[thr[k]].group == group; k++)
            if (ue[thr[k]].tries < ue[i].tries)
                i = thr[k];
        const double y = ue[i].weight * (double)t / ue[i].p - (double)ue[i].tries;
        if (y > best_y || (y == best_y && i < best)) {
            best = i;
            best_y = y;
        }
    }
    return best;
}

/* Add to row s the delivery in slot t of x's packet that arrived in slot
   g.  Returns its spacing sample g - g_prev, or 0 for the window's first
   delivery, which takes none. */
static inline int64_t record(int64_t *s, struct ue *x, int64_t g, int64_t t)
{
    int64_t d = 0;
    s[DELIVERIES]++;
    s[LATENCY] += t - g + 1;
    if (x->g_prev >= 0) {
        d = g - x->g_prev;
        s[SAMPLES]++;
        s[SPACING] += d;
        s[SPACING_SQ] += d * d;
    }
    x->g_prev = g;
    return d;
}

/* Add the age s - lam of AoI slots s in (aged, t] to row s: lam only moves
   at a delivery, so this runs before each and at the segment's end. */
static inline void accrue(int64_t *s, struct ue *x, int64_t t)
{
    s[AGE] += (t - x->aged) * (t + x->aged + 1 - 2 * x->lam) / 2;
    x->aged = t;
}

/* Serve slots [a, a + n) under the randomised latency policy (see
   policies.RandomizedPolicy), in the engine's per-slot order: the slot's
   arrivals, then one selection, then the outcome.

   members lists the AoI positions, then the latency ones, each ascending,
   then the throughput ones grouped as throughput_best reads them.  An AoI
   or latency UE i's arrival slots in the block are arrived[i][0:end[i]],
   ascending, of which those before head[i] have been served; head[i]
   advances here.  In slot t, the policy uniform draws[t - a] picks the
   latency queue whose partition interval holds it, which sends its newest
   packet; a draw in the leftover goes to the retained AoI packet with the
   largest index, and without one to throughput_best, g = t.  The attempt
   succeeds iff u[t - a] < p.  Each latency stack has room for the block's
   arrivals.

   Writes each UE's sums over the segment to sums[i * NSUMS_RD:], as
   cmu_serve does (arrivals, attempts, deliveries, latency, spacing
   samples), then, for AoI UEs, the spacing times wait and the age. */
void rd_serve(int64_t a, int64_t n, const double *restrict u, const double *restrict draws,
              int64_t naoi, int64_t nlat, int64_t nthr, const int64_t *restrict members,
              int64_t *const *restrict arrived, int64_t *restrict head,
              const int64_t *restrict end, struct ue *restrict ue, int64_t *restrict sums)
{
    const int64_t *aoi = members, *lat = aoi + naoi, *thr = lat + nlat;
    const int64_t nstreams = naoi + nlat, stop = a + n;
    int64_t queued[nlat + 1];
    double cum[nlat + 1];
    int64_t nq = partition(nlat, lat, ue, queued, cum);
    /* AoI UEs with a retained packet, and the next slot with an arrival */
    int64_t pooled = 0, next = INT64_MAX;
    for (int64_t k = 0; k < nstreams + nthr; k++)
        memset(sums + members[k] * NSUMS_RD, 0, NSUMS_RD * sizeof *sums);
    for (int64_t k = 0; k < naoi; k++)
        pooled += ue[aoi[k]].packet >= 0;
    for (int64_t k = 0; k < nstreams; k++) {
        const int64_t i = members[k];
        if (head[i] < end[i] && arrived[i][head[i]] < next)
            next = arrived[i][head[i]];
    }
    for (int64_t t = a; t < stop; t++) {
        if (t == next) {
            int regroup = 0;
            next = INT64_MAX;
            for (int64_t k = 0; k < nstreams; k++) {
                const int64_t i = members[k];
                int64_t h = head[i];
                if (h == end[i])
                    continue;
                if (arrived[i][h] == t) {
                    sums[i * NSUMS_RD + ARRIVALS]++;
                    if (k < naoi)
                        aoi_arrival(&ue[i], t, &pooled);
                    else {
                        regroup |= !ue[i].depth;
                        ue[i].stack[ue[i].depth++] = t;
                    }
                    head[i] = ++h;
                    if (h == end[i])
                        continue;
                }
                if (arrived[i][h] < next)
                    next = arrived[i][h];
            }
            if (regroup)
                nq = partition(nlat, lat, ue, queued, cum);
        }
        const double draw = draws[t - a];
        int64_t k = 0;
        while (k < nq && !(draw < cum[k]))
            k++;
        if (k < nq) {
            const int64_t i = queued[k];
            struct ue *x = &ue[i];
            int64_t *s = sums + i * NSUMS_RD;
            s[ATTEMPTS]++;
            if (u[t - a] < x->p) {
                record(s, x, x->stack[--x->depth], t);
                if (!x->depth)
                    nq = partition(nlat, lat, ue, queued, cum);
            }
        } else if (pooled) {
            const int64_t i = aoi_best(naoi, aoi, ue);
            struct ue *x = &ue[i];
            int64_t *s = sums + i * NSUMS_RD;
            s[ATTEMPTS]++;
            if (u[t - a] < x->p) {
                const int64_t g = x->packet;
                accrue(s, x, t);
                s[SPACING_WAIT] += record(s, x, g, t) * (t - g);
                if (x->lam < g)
                    x->lam = g;
                x->delivered++;
                x->packet = -1;
                pooled--;
            }
        } else if (nthr) {
            const int64_t i = throughput_best(t, nthr, thr, ue);
            struct ue *x = &ue[i];
            int64_t *s = sums + i * NSUMS_RD;
            s[ATTEMPTS]++;
            x->tries++;
            if (u[t - a] < x->p)
                record(s, x, t, t);
        }
    }
    for (int64_t k = 0; k < naoi; k++)
        accrue(sums + aoi[k] * NSUMS_RD, &ue[aoi[k]], stop - 1);
}
