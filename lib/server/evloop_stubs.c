/* poll(2) primitive for the dkserve event loop.
 *
 * The blocking wait releases the OCaml runtime lock, so the interest
 * set is copied into a C array before the wait and results are copied
 * back after: OCaml arrays may move during a GC that another thread
 * triggers while this one is parked in the kernel.
 *
 * Returns the ready count (>= 0), or -1 on EINTR (treat as zero
 * ready).
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>

#include <errno.h>
#include <poll.h>
#include <stdlib.h>

#define DK_RD 1
#define DK_WR 2
#define DK_ERR 4

#define DK_STACK_FDS 256

CAMLprim value dk_poll(value v_fds, value v_events, value v_revents, value v_nfds,
                       value v_timeout_ms)
{
  CAMLparam5(v_fds, v_events, v_revents, v_nfds, v_timeout_ms);
  int nfds = Int_val(v_nfds);
  int timeout = Int_val(v_timeout_ms);
  struct pollfd stack_pfds[DK_STACK_FDS];
  struct pollfd *pfds = stack_pfds;
  int i, rc;

  if (nfds > DK_STACK_FDS) {
    pfds = malloc(sizeof(struct pollfd) * nfds);
    if (pfds == NULL) caml_failwith("Evloop.poll: out of memory");
  }
  for (i = 0; i < nfds; i++) {
    int interest = Int_val(Field(v_events, i));
    pfds[i].fd = Int_val(Field(v_fds, i));
    pfds[i].events = 0;
    if (interest & DK_RD) pfds[i].events |= POLLIN;
    if (interest & DK_WR) pfds[i].events |= POLLOUT;
    pfds[i].revents = 0;
  }

  caml_release_runtime_system();
  rc = poll(pfds, nfds, timeout);
  caml_acquire_runtime_system();

  if (rc < 0) {
    int e = errno;
    if (pfds != stack_pfds) free(pfds);
    if (e == EINTR) CAMLreturn(Val_int(-1));
    caml_failwith("Evloop.poll failed");
  }
  for (i = 0; i < nfds; i++) {
    int out = 0;
    if (pfds[i].revents & (POLLIN | POLLHUP)) out |= DK_RD;
    if (pfds[i].revents & POLLOUT) out |= DK_WR;
    if (pfds[i].revents & (POLLERR | POLLNVAL)) out |= DK_ERR;
    Store_field(v_revents, i, Val_int(out));
  }
  if (pfds != stack_pfds) free(pfds);
  CAMLreturn(Val_int(rc));
}
