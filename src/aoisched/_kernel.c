/* Compiled kernels of aoisched, built and loaded by kernel.py.

   Built with -ffp-contract=off and without -ffast-math, so every double
   comparison and operation rounds as the same one in Python does. */

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
