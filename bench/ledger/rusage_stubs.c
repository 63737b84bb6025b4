/* getrusage(RUSAGE_CHILDREN) for the ledger: the OCaml Unix library
   does not expose peak RSS. On Linux, ru_maxrss for RUSAGE_CHILDREN is
   the peak resident set size, in kB, of the largest child that has
   terminated and been waited for. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value ledger_reaped_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0)
    return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
